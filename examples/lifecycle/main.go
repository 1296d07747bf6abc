// Command lifecycle demonstrates the network lifecycle beyond the full
// drain: deadline-bounded runs with Network.RunContext and streaming use of
// a long-lived Instance that is aborted mid-flight with Stop. Both paths
// reclaim every runtime goroutine — the program prints the goroutine count
// before and after to show nothing leaks, which is what lets a server embed
// S-Net networks per request.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"time"

	"snet"
)

const source = `
net grind
{
    box crunch ( (job) -> (result) );
} connect crunch;
`

func main() {
	reg := snet.NewRegistry()
	reg.RegisterBox("crunch", func(c *snet.BoxCall) error {
		// A deliberately slow box: each job takes 10ms.
		time.Sleep(10 * time.Millisecond)
		c.Emit(snet.NewRecord().SetField("result", c.Field("job")))
		return nil
	})
	res, err := snet.CompileSource(source, reg)
	if err != nil {
		log.Fatal(err)
	}
	ent, _ := res.Net("grind")
	net := snet.NewNetwork(ent, snet.Options{})

	before := runtime.NumGoroutine()

	// 1. A deadline-bounded batch: 1000 jobs cannot finish in 50ms; the
	// context stops the instance, partial results come back, and the
	// error identifies both the deadline and the abort.
	var jobs []*snet.Record
	for i := 0; i < 1000; i++ {
		jobs = append(jobs, snet.NewRecord().SetField("job", i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	outs, err := net.RunContext(ctx, jobs...)
	cancel()
	fmt.Printf("bounded run: %d/1000 results, stopped=%v, deadline=%v\n",
		len(outs), errors.Is(err, snet.ErrStopped), errors.Is(err, context.DeadlineExceeded))
	if !errors.Is(err, snet.ErrStopped) || !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("bounded run: %v", err)
	}

	// 2. A streaming instance aborted mid-flight: feed jobs with Send
	// (which can never block past a Stop), read a few results, then pull
	// the plug.
	inst := net.Start()
	go func() {
		for i := 0; ; i++ {
			if !inst.Send(snet.NewRecord().SetField("job", i)) {
				return // instance stopped; producer exits cleanly
			}
		}
	}()
	got := 0
	for range 3 {
		if r, ok := <-inst.Out; ok {
			_ = r
			got++
		}
	}
	if err := inst.Stop(); !errors.Is(err, snet.ErrStopped) {
		log.Fatalf("streaming run: %v", err)
	}
	fmt.Printf("streaming run: %d results consumed, then aborted\n", got)

	// Give the runtime's last goroutines a beat to be descheduled, then
	// show that both aborted networks were fully reclaimed.
	after := runtime.NumGoroutine()
	for i := 0; i < 20 && after > before; i++ {
		time.Sleep(50 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	fmt.Printf("goroutines: %d before, %d after\n", before, after)
	if after > before {
		log.Fatal("goroutines leaked")
	}
}
