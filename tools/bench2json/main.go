// Command bench2json converts `go test -bench` text output into a JSON
// document, so benchmark results can be archived and diffed alongside the
// code (`make bench` writes BENCH_pr3.json). The raw text stays the
// benchstat input; the JSON is for machines.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' . | bench2json -o BENCH.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	report, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err = enc.Encode(report)
	// A close error counts too: data the kernel fails to write back only
	// at close must not pass as a success.
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}
