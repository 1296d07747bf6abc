package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"snet/internal/raytrace"
)

// valueRNG is the source of window readings' values for a seed.
func valueRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

// InputHash hashes what the named workload generates from seed, before any
// of it reaches the runtime: the same seed must give the same hash, and for
// the seeded workloads another seed another hash. pipeline_durable and
// wire_pipeline send fixed sequences (record numbers; wireapp's own sensor
// values), so their inputs do not depend on the seed.
func InputHash(name string, seed int64) (string, error) {
	h := sha256.New()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) } // hash writes cannot fail
	switch name {
	case "render_fig6", "render_skewed":
		kind := "unbalanced"
		if name == "render_skewed" {
			kind = "skewed"
		}
		// A scene has no serial form; a small render of it is a function
		// of every object, material and light in it.
		for _, sc := range Scenes(kind, seed, 4) {
			img, st := raytrace.Render(sc, 32, 24)
			h.Write(img.Pix)
			put(st.ObjectTests)
		}
	case "window_agg", "window_trickle":
		rng := valueRNG(seed)
		for _, rd := range Schedule(seed) {
			put(int64(rd.Key))
			put(int64(rd.Slot))
			put(int64(rng.Intn(1 << 16)))
		}
	case "pipeline_durable":
		put(EpochRecords)
	case "wire_pipeline":
		put(WireSeqs)
	default:
		return "", fmt.Errorf("unknown workload %q", name)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
