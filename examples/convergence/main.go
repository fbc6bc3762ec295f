// Convergence: watch the migration controller pull a workload's hot set
// on-package over time. The run samples its cumulative pipeline counters
// at every monitoring epoch (Config.EpochSeries); differencing those
// samples yields about 20 windows, each printed with its DRAM latency,
// on-package share, and the cumulative swap count — the picture behind
// choosing a warmup length for steady-state measurements.
//
// Usage: convergence [-workload SPEC2006] [-records N]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"heteromem"
)

const interval = 1000 // monitoring epoch, in memory accesses

func main() {
	name := flag.String("workload", "SPEC2006", "built-in workload")
	records := flag.Uint64("records", 2_000_000, "total accesses")
	flag.Parse()

	sys, err := heteromem.New(heteromem.Config{
		MacroPageSize: 256 * heteromem.KiB,
		Migration:     heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: interval},
		// One sample per epoch plus the flush-time one: the ring keeps the
		// whole run.
		EpochSeries: int(*records/interval + 1),
	})
	if err != nil {
		log.Fatal(err)
	}

	gen, err := heteromem.MemoryWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	src, err := heteromem.NewGenerator(gen, 1)
	if err != nil {
		log.Fatal(err)
	}

	res, err := sys.Run(src, *records)
	if err != nil {
		log.Fatal(err)
	}

	// Window w ends at epoch sample (w+1)*step-1; the last window runs on
	// to the flush-time sample that closes the series.
	samples := res.Series
	epochs := len(samples) - 1
	step := max(epochs/20, 1)
	windows := max(epochs/step, 1)
	fmt.Printf("migration convergence for %s (%d accesses, %d epochs of %d, %d windows)\n\n",
		*name, *records, epochs, interval, windows)
	fmt.Printf("%-8s %-10s %-12s %-10s %-8s %s\n", "window", "accesses", "DRAM lat", "on-pkg", "swaps", "")
	var prev heteromem.EpochSample
	for w := 0; w < windows; w++ {
		cur := samples[len(samples)-1]
		if w < windows-1 {
			cur = samples[(w+1)*step-1]
		}
		on := cur.AccOn - prev.AccOn
		acc := on + cur.AccOff - prev.AccOff
		share := float64(on) / float64(max(acc, 1))
		lat := (cur.DRAMLatSum - prev.DRAMLatSum) / float64(max(cur.DRAMLatN-prev.DRAMLatN, 1))
		bar := strings.Repeat("#", int(share*30+0.5))
		fmt.Printf("%-8d %-10d %-12.1f %-10s %-8d %s\n",
			w, acc, lat, fmt.Sprintf("%.1f%%", share*100), cur.SwapsCompleted, bar)
		prev = cur
	}
	fmt.Printf("\nfinal mean DRAM latency: %.1f cycles, on-package share %.1f%%\n",
		res.MeanDRAMLatency, res.Report.OnShare*100)
}
