// Package wire is the multi-process transport underneath Distributed
// S-Net: a length-prefixed TCP protocol that stretches the in-process
// cluster model (internal/dist) across OS processes, so the same S-Net
// program — same combinators, same placement tags, same stealing policy —
// runs on one process or on a coordinator plus snetd workers with zero
// source changes. This is the paper's portability claim made literal: the
// network description stays untouched while the platform underneath it
// changes from threads to sockets.
//
// # Topology and division of labor
//
// One coordinator process runs the S-Net network itself: every entity
// goroutine, every stream link, every placement decision lives there.
// Worker processes (cmd/snetd) contribute CPU slots and a box table. The
// coordinator's Cluster embeds a dist.Cluster as its scheduling model —
// slot queues, dispatch- and release-time stealing, cancellation, and all
// Stats accounting are the model's, byte-for-byte identical to the
// in-process platform — and uses dist.Cluster.ExecOn to learn which node's
// slot an execution was granted. When the granted node is remote, the box
// call ships as an EXEC frame (box name plus codec-encoded input record)
// and the worker's emissions return as a RESULT frame; when it is node 0,
// or the box is not registered remotely, or the input has no wire form,
// the execution runs in-process on the granted slot exactly as before.
//
// Box closures cannot cross a socket, so remote execution rides the
// core.Platform.ExecBox contract: the runtime offers the box's name and
// triggering record, the worker executes its registered body via
// core.CallBox (no flow inheritance), and the coordinator applies
// inheritance and type checking to the returned emissions — remote and
// local executions are indistinguishable downstream.
//
// # Protocol
//
// Every frame is a u32 little-endian length followed by that many payload
// bytes; the first payload byte is the frame type. Oversized and truncated
// frames sever the connection. See docs/architecture.md for the full frame
// table. The life of a connection:
//
//	worker                         coordinator
//	  HELLO(version, cpus,
//	        rejoin node, boxes)   →
//	                              ← WELCOME(node id, cluster size, slots,
//	                                        heartbeat interval, liveness)
//	                              ← EXEC / STEAL-GRANT(req, box, record)
//	  RESULT(req, emissions)      →
//	                              ← RECORD-BATCH (stream hops, mirrored)
//	                              ← PING (idle link, liveness probe)
//	  PONG                        →
//	                              ← GOODBYE
//	  GOODBYE                     →   (both sides close)
//
// PING/PONG keep an idle link observably alive: the coordinator probes any
// link it has not heard from within the heartbeat interval and declares a
// peer dead — hung, not just closed — when nothing arrives for the
// liveness timeout. A worker that loses its connection may reconnect and
// present its old node id in HELLO (a RE-HELLO); the coordinator resets
// that link's codec pair and returns the node to the schedulable set. See
// docs/architecture.md "Failure model" for the full state machine.
//
// Record payloads use the negotiated link codec (dist.Codec): each direction
// of each connection owns one codec pair, so a label name crosses each
// socket exactly once and steady-state records carry symbol references.
// Non-scalar field values (scenes, image chunks) cross through a
// dist.ValueCodec extension table registered on both endpoints. A
// connection that drops mid-stream must not reuse its codecs — a
// reconnecting link starts fresh via dist.Codec.Reset.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// protoVersion is the protocol version exchanged in HELLO/WELCOME; a
// mismatch is answered with GOODBYE and the connection is closed.
// Version 2 added the rejoin node id to HELLO, the heartbeat parameters to
// WELCOME, and the PING/PONG frames; version 3 dropped the LOAD and
// STEAL-REQUEST frames (types 7 and 8, now unassigned): the coordinator's
// model already counts every slot it grants.
const protoVersion = 3

// helloMagic leads every HELLO frame ("SNET"), so a stray connection from
// something that is not a worker fails fast instead of being interpreted.
const helloMagic = 0x534e4554

// Frame types.
const (
	fHello      byte = 1  // worker → coordinator: join with capabilities
	fWelcome    byte = 2  // coordinator → worker: node id + cluster shape
	fExec       byte = 3  // coordinator → worker: run a box call
	fStealGrant byte = 4  // coordinator → worker: run a box call stolen from its home node
	fResult     byte = 5  // worker → coordinator: a box call's emissions
	fBatch      byte = 6  // coordinator → worker: a mirrored stream batch (RECORD-BATCH)
	fGoodbye    byte = 9  // either direction: orderly leave, with reason
	fPing       byte = 10 // either direction: liveness probe (empty payload)
	fPong       byte = 11 // either direction: liveness probe answer (empty payload)
)

// DefaultMaxFrame bounds a single frame (length prefix value). 64 MiB
// accommodates a full-scene image chunk batch with a wide margin while
// keeping a corrupted length prefix from allocating the moon.
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge is returned (wrapped, with sizes) when a peer announces
// a frame larger than the configured maximum; the connection is severed,
// since the stream can no longer be trusted.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// readFrame reads one length-prefixed frame and returns its type byte and
// payload (the bytes after the type). Short reads surface as
// io.ErrUnexpectedEOF from io.ReadFull — a peer that dies mid-frame is
// indistinguishable from a truncated stream, and both sever the
// connection. A clean EOF between frames returns io.EOF.
func readFrame(r io.Reader, max int) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: zero-length frame")
	}
	if int64(n) > int64(max) {
		return 0, nil, fmt.Errorf("%w: %d bytes announced, %d allowed", ErrFrameTooLarge, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// appendFrame assembles one frame — length prefix, type byte, payload
// parts — into buf, returning the grown buffer. The frame goes out in a
// single Write so a frame is never interleaved with another writer's bytes
// (writers additionally serialize on a per-connection mutex, which also
// pins the codec negotiation order to the wire order).
func appendFrame(buf []byte, typ byte, parts ...[]byte) []byte {
	n := 1
	for _, p := range parts {
		n += len(p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, typ)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return buf
}

// frameLen returns the on-wire size of a frame with the given payload
// length: the length prefix, the type byte, and the payload.
func frameLen(payload int) int64 { return int64(4 + 1 + payload) }
