package workloads

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"

	"snet/bench/trace"
	"snet/internal/compile"
	"snet/internal/core"
	"snet/internal/lang"
	"snet/internal/record"
)

// WindowSource is the windowed aggregation in S-Net source. Readings
// {val, <key>, <slot>, <win>} are routed to one replica per key and, inside
// it, per window slot; each replica folds its window with the paper's
// Fig. 3 merger idiom — the first reading seeds an accumulator, a
// synchrocell inside a star pairs the accumulator with the next reading,
// the fold box adds it, a tag-arithmetic filter counts, and the star exits
// when the count reaches the window length. Boxes do integer adds only.
const WindowSource = `
net window
{
    box seed ( (val, <fst>) -> (acc) );
    box fold ( (acc, val) -> (acc) );
    box emit ( (acc, <cnt>) -> (sum) );
} connect
    ( ( ( ( seed .. [ {} -> {<cnt=1>} ] )
          | []
        )
        .. ( [| {acc}, {val} |]
             .. ( ( fold .. [ {<cnt>} -> {<cnt+=1>} ] )
                  | []
                )
           ) * {<cnt> == <win>}
      ) ! <slot>
    ) ! <key>
    .. emit ;
`

// Shape of the generated stream.
const (
	WindowKeys   = 32   // distinct keys
	WindowLen    = 16   // readings folded into one sum
	WindowSlots  = 16   // windows per key per epoch
	EpochRecords = 8192 // records per Instance: bounds star and split replicas
	// blockKeys windows are open at a time: the generator emits the
	// readings of blockKeys windows (one per key) shuffled together, then
	// moves on. The closed loop's in-flight cap must exceed the
	// blockKeys*WindowLen records a block can hold back, or it deadlocks.
	blockKeys    = 8
	blockRecords = blockKeys * WindowLen
	InFlight     = 256
	// TrickleRate is window_trickle's fixed schedule, records per second.
	TrickleRate = 2000
	// TrickleEpoch is window_trickle's epoch: a quarter of the schedule,
	// one second of input. Where an Instance's goroutines land on the
	// host's processors sets its latency for as long as it lives (p90
	// differs by ±10% between Instances of one run), so a window must hold
	// many Instances for its percentiles to repeat; with EpochRecords it
	// held four.
	TrickleEpoch = EpochRecords / 4
)

// Reading is one slot of an epoch's send order; the value is drawn when
// the reading is sent.
type Reading struct {
	Key, Slot int
	First     bool // first reading of its window to be sent: carries <fst>
	Last      bool // last reading of its window to be sent
}

// Schedule returns one epoch's send order, a function of the seed alone:
// 64 blocks, each the WindowLen readings of blockKeys windows in shuffled
// order; over an epoch every key gets WindowSlots windows.
func Schedule(seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Reading, 0, EpochRecords)
	for slot := 0; slot < WindowSlots; slot++ {
		keys := rng.Perm(WindowKeys)
		for b := 0; b < WindowKeys; b += blockKeys {
			block := make([]Reading, 0, blockRecords)
			for _, k := range keys[b : b+blockKeys] {
				for i := 0; i < WindowLen; i++ {
					block = append(block, Reading{Key: k, Slot: slot})
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			seen := map[int]int{}
			for i := range block {
				seen[block[i].Key]++
				block[i].First = seen[block[i].Key] == 1
				block[i].Last = seen[block[i].Key] == WindowLen
			}
			out = append(out, block...)
		}
	}
	return out
}

var (
	symVal  = record.Intern("val")
	symAcc  = record.Intern("acc")
	symSum  = record.Intern("sum")
	symKey  = record.Intern("key")
	symSlot = record.Intern("slot")
	symWin  = record.Intern("win")
	symFst  = record.Intern("fst")
)

// windowNetwork parses, compiles and wraps WindowSource, with a span
// around each layer it crosses.
func windowNetwork(cfg *Config) (*core.Network, error) {
	reg := compile.NewRegistry()
	reg.RegisterBox("seed", func(c *core.BoxCall) error {
		c.Emit(c.NewRecord().SetFieldSym(symAcc, c.FieldSym(symVal)))
		return nil
	})
	reg.RegisterBox("fold", func(c *core.BoxCall) error {
		c.Emit(c.NewRecord().SetFieldSym(symAcc, c.FieldSym(symAcc).(int)+c.FieldSym(symVal).(int)))
		return nil
	})
	reg.RegisterBox("emit", func(c *core.BoxCall) error {
		c.Emit(c.NewRecord().SetFieldSym(symSum, c.FieldSym(symAcc)))
		return nil
	})
	span := cfg.Trace.Begin("lang.parse", 0, 0)
	prog, err := lang.Parse(WindowSource)
	span.End()
	if err != nil {
		return nil, err
	}
	span = cfg.Trace.Begin("compile.program", 0, 0)
	res, err := compile.Program(prog, reg)
	span.End()
	if err != nil {
		return nil, err
	}
	ent, ok := res.Net("window")
	if !ok {
		return nil, fmt.Errorf("net window not compiled")
	}
	span = cfg.Trace.Begin("core.new_network", 0, 0)
	net := core.NewNetwork(ent, core.Options{})
	span.End()
	return net, nil
}

type windowSession struct {
	net   *core.Network
	sched []Reading
	rng   *rand.Rand // record values
	pool  *record.Pool
	// epochLen is how many readings of the schedule one Instance gets.
	epochLen int
	// rate > 0 makes the loop open: records are sent on a fixed schedule
	// of rate per second and timed from when they were due. The schedule
	// runs from t0 and has handed out due times for n records; it does not
	// pause for the turn-around between two epochs.
	rate float64
	t0   time.Time
	n    int
}

func setupWindow(cfg *Config, epochLen int, rate float64) (Session, error) {
	net, err := windowNetwork(cfg)
	if err != nil {
		return nil, err
	}
	return &windowSession{net: net, sched: Schedule(cfg.Seed), epochLen: epochLen,
		rng: valueRNG(cfg.Seed), pool: record.NewPool(), rate: rate}, nil
}

func setupWindowAgg(cfg *Config) (Session, error) { return setupWindow(cfg, EpochRecords, 0) }
func setupWindowTrickle(cfg *Config) (Session, error) {
	return setupWindow(cfg, TrickleEpoch, TrickleRate)
}

func (s *windowSession) Close(*Meter) error { return nil }

// Slice runs epochs until d has passed. An epoch is one Instance: start,
// send up to epochLen readings (stopping at the first block boundary past
// the deadline), close the input, drain.
func (s *windowSession) Slice(d time.Duration, m *Meter) error {
	s.t0, s.n = time.Now(), 0
	deadline := s.t0.Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		m.Main(func() int { return s.epoch(m, deadline) })
	}
	return nil
}

// waitUntil returns at t, spinning, and reports the CPU it spun away: the open
// loop's sender owns one of the host's processors for the length of the
// run. Go's timers wake about a millisecond late when the thread sleeps in
// the network poller — twice TrickleRate's period — and the gentler ways of
// waiting make the measured latency a property of the waiting: yielding in
// a loop (runtime.Gosched) left one run in four with a tenth or more of its
// windows taking 1-8 ms and op_ms_p90 thirty times the other runs'; a
// nanosleep system call up to 0-150 µs short of t spread op_ms_p90 over
// 12-27% between runs. Spinning costs latency (a goroutine the sender wakes
// must be stolen by the other processor) but the cost is the same every
// run: 6% spread.
//
// The spin is nine tenths of the process's CPU, so it is metered, on the
// spinning thread's own CPU clock, and taken out of cpu_ms_per_op. (The wall
// clock will not do: when the host gives the process less than two
// processors the spinner shares one with the runtime's threads, and its
// wall time is theirs too. Nor will locking the sender to its thread to
// make the thread clock safe: that changes how the goroutines it wakes are
// picked up.) A goroutine may change threads, if rarely within 400 µs; a
// spin that ends on another thread than it began on is metered by the wall
// clock.
func waitUntil(t time.Time) (spinCPU time.Duration) {
	if wait := time.Until(t); wait > 3*time.Millisecond {
		time.Sleep(wait - 2*time.Millisecond)
	}
	tid, cpu0, start := syscall.Gettid(), threadCPU(), time.Now()
	for time.Now().Before(t) {
	}
	spinCPU = threadCPU() - cpu0
	if syscall.Gettid() != tid {
		spinCPU = time.Since(start)
	}
	return spinCPU
}

// threadCPU reads the calling thread's CPU clock, which is exact where
// getrusage(RUSAGE_THREAD) advances by scheduler ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// Cannot fail: the clock exists and ts is writable.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// window is the driver's own account of one window of the current epoch.
type window struct {
	want  int       // the plain-Go fold of the readings sent
	sent  int       // readings sent
	last  time.Time // when the last reading was sent, or was due
	got   int       // sums received
	equal bool      // the first sum received equals want
}

// epoch runs one Instance and returns the number of readings whose
// window's sum came out right, exactly once.
func (s *windowSession) epoch(m *Meter, deadline time.Time) int {
	op := m.NextOp()
	epochSpan := m.Trace.Begin("driver.epoch", op, 0)
	span := m.Trace.Begin("core.start", op, epochSpan.ID())
	inst := s.net.Start()
	span.End()

	wins := make([]window, WindowKeys*WindowSlots)
	// Tokens held = records sent whose window has not yet emitted.
	sem := make(chan struct{}, InFlight)
	recvDone := make(chan struct{})
	stray := 0 // outputs that name no window
	go func() {
		defer close(recvDone)
		for r := range inst.Out {
			now := time.Now()
			key, _ := r.TagSym(symKey)
			slot, _ := r.TagSym(symSlot)
			sum, _ := r.FieldSym(symSum)
			s.pool.Put(r)
			if key < 0 || key >= WindowKeys || slot < 0 || slot >= WindowSlots {
				stray++
				continue
			}
			w := &wins[key*WindowSlots+slot]
			w.got++
			if w.got == 1 {
				w.equal = sum == w.want
			}
			m.Op(now.Sub(w.last))
			if (key+slot)%4 == 0 {
				m.Trace.Add("core.transit", op, epochSpan.ID(), w.last, now)
			}
			if s.rate == 0 {
				for i := 0; i < WindowLen; i++ {
					<-sem
				}
			}
		}
	}()

	sent := 0
	for i, rd := range s.sched[:s.epochLen] {
		if i%blockRecords == 0 {
			if i > 0 && !time.Now().Before(deadline) {
				break
			}
			if m.Trace.Enabled() && i%(16*blockRecords) == 0 {
				for _, l := range inst.LinkStats() {
					m.Max("stream.max_depth", float64(l.Depth))
				}
			}
		}
		v := s.rng.Intn(1 << 16)
		r := s.pool.Get().SetFieldSym(symVal, v).
			SetTagSym(symKey, rd.Key).SetTagSym(symSlot, rd.Slot).SetTagSym(symWin, WindowLen)
		if rd.First {
			r.SetTagSym(symFst, 1)
		}
		w := &wins[rd.Key*WindowSlots+rd.Slot]
		w.want += v
		w.sent++
		at := time.Now()
		if s.rate > 0 {
			due := s.t0.Add(time.Duration(float64(s.n) / s.rate * float64(time.Second)))
			s.n++
			m.Pacer(waitUntil(due))
			m.Late(time.Since(due))
			at = due
		} else {
			sem <- struct{}{}
			at = time.Now()
		}
		if rd.Last {
			// Written before the send that completes the window, read by
			// the receiver only after the sum has come out.
			w.last = at
		}
		var sendSpan trace.Active
		if i%64 == 0 {
			sendSpan = m.Trace.Begin("core.send", op, epochSpan.ID())
		}
		if !inst.Send(r) {
			break
		}
		sendSpan.End()
		sent++
	}
	span = m.Trace.Begin("core.close", op, epochSpan.ID())
	inst.CloseIn()
	<-recvDone
	err := inst.Close()
	span.End()
	epochSpan.End()

	// A window is right when all its readings went in and exactly one sum,
	// equal to the driver's own fold, came out.
	good, wrong := 0, 0
	for i := range wins {
		w := &wins[i]
		switch {
		case w.sent == 0:
		case w.sent == WindowLen && w.got == 1 && w.equal:
			good += WindowLen
		default:
			wrong++
		}
	}
	countLinks(m, inst.LinkStats())
	countOpt(m, inst.OptStats())
	m.Snap("driver.epoch", "stream.records", "stream.batches")
	// A runtime error or dead letter fails the whole epoch.
	if bad := countErrs(m, inst, err); bad+stray > 0 {
		good = 0
	}
	m.Checked(sent, sent-good, fmt.Sprintf("window epoch: %d of %d readings not accounted for by a correct sum (%d windows wrong, missing or duplicated; close: %v)", sent-good, sent, wrong, err))
	return good
}
