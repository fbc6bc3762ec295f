// Command hmtrace generates, inspects, and converts memory-access traces.
//
// Usage:
//
//	hmtrace gen -workload pgbench -n 1000000 -o trace.bin
//	hmtrace gen -workload FT -n 100000 -text -o trace.txt
//	hmtrace gen -workload FT -n 100000 -packed -o trace.hmpk
//	hmtrace info -i trace.bin
//	hmtrace cat -i trace.hmpk | head
//	hmtrace convert -i trace.bin -to packed -o trace.hmpk
//
// Binary (HMTR) and packed columnar (HMPK) inputs are detected by magic;
// every reading command accepts either.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:], os.Stdout)
	case "info":
		err = cmdInfo(os.Args[2:], os.Stdout)
	case "cat":
		err = cmdCat(os.Args[2:], os.Stdout)
	case "wss":
		err = cmdWSS(os.Args[2:], os.Stdout)
	case "convert":
		err = cmdConvert(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hmtrace <gen|info|cat|wss|convert> [flags]
  gen     -workload <name> -n <records> [-seed N] [-text|-packed] [-o file]
  info    -i <file>
  cat     -i <file> [-skip N]
  wss     -i <file> [-window N] [-block B]   working-set profile per window
  convert -i <file> -to <bin|text|packed> [-o file]
workloads: `+strings.Join(workload.Names(), ", "))
}

// writeAll drains src into w in the named format ("bin", "text", or
// "packed"). The packed form is built in memory first: its file layout
// needs the chunk directory up front.
func writeAll(w io.Writer, src trace.Source, format string) error {
	switch format {
	case "text":
		_, err := trace.WriteText(w, src)
		return err
	case "packed":
		p, err := trace.Pack(src, 0)
		if err != nil {
			return err
		}
		_, err = p.WriteTo(w)
		return err
	case "bin":
		tw, err := trace.NewWriter(w)
		if err != nil {
			return err
		}
		if _, err := trace.Each(src, 0, tw.Write); err != nil {
			return err
		}
		return tw.Flush()
	default:
		return fmt.Errorf("unknown output format %q (want bin, text, or packed)", format)
	}
}

func cmdGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	n := fs.Uint64("n", 1_000_000, "number of records")
	seed := fs.Int64("seed", 1, "generator seed")
	text := fs.Bool("text", false, "write the text format instead of binary")
	packed := fs.Bool("packed", false, "write the packed columnar format instead of binary")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *text && *packed {
		return errors.New("gen: -text and -packed are mutually exclusive")
	}
	gen, err := workload.NewMemory(*name, *seed)
	if err != nil {
		return err
	}
	format := "bin"
	if *text {
		format = "text"
	} else if *packed {
		format = "packed"
	}
	return writeOutput(*out, stdout, func(w io.Writer) error {
		return writeAll(w, trace.NewLimit(gen, *n), format)
	})
}

// writeOutput runs write against the file at path, or against stdout when
// path is empty. A file's Close error is returned too: data the kernel
// fails to write back only at close must not pass as a success.
func writeOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openTrace opens path and detects the container by magic: HMPK loads the
// packed columnar form (seekable both ways), anything else goes to the
// binary reader, whose own magic check reports unknown formats.
func openTrace(path string) (trace.Source, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(f)
	magic, err := br.Peek(4)
	if err == nil && string(magic) == "HMPK" {
		p, err := trace.ReadPacked(br)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		// The whole trace is decoded into memory; nothing keeps the file open.
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
		return trace.NewPackedSource(p), func() error { return nil }, nil
	}
	r, err := trace.NewReader(br)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f.Close, nil
}

func cmdInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (binary or packed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, closer, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closer()
	var writes uint64
	var minA, maxA uint64 = ^uint64(0), 0
	var lastCycle uint64
	n, err := trace.Each(src, 0, func(rec trace.Record) error {
		if rec.Write {
			writes++
		}
		if rec.Addr < minA {
			minA = rec.Addr
		}
		if rec.Addr > maxA {
			maxA = rec.Addr
		}
		lastCycle = rec.Cycle
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		fmt.Fprintln(stdout, "empty trace")
		return nil
	}
	fmt.Fprintf(stdout, "records:    %d\n", n)
	fmt.Fprintf(stdout, "writes:     %d (%.1f%%)\n", writes, float64(writes)/float64(n)*100)
	fmt.Fprintf(stdout, "addr range: 0x%x .. 0x%x (%.1f MB span)\n", minA, maxA, float64(maxA-minA)/(1<<20))
	fmt.Fprintf(stdout, "last cycle: %d (%.2f ms at 3.2 GHz)\n", lastCycle, float64(lastCycle)/3.2e6)
	return nil
}

func cmdWSS(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wss", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (binary or packed)")
	window := fs.Uint64("window", 100000, "accesses per analysis window")
	block := fs.Uint64("block", 4096, "working-set block size (bytes, power of two)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, closer, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closer()
	a, err := trace.Analyze(src, *window, *block)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "records=%d writes=%.1f%% footprint=%.1fMB mean-gap=%.1f cycles\n",
		a.Records, a.WriteShare()*100, float64(a.Footprint)/(1<<20), a.MeanGap)
	fmt.Fprintf(stdout, "%-8s %-12s %-12s %-10s\n", "window", "wss(MB)", "new(MB)", "writes%")
	for i, w := range a.Windows {
		fmt.Fprintf(stdout, "%-8d %-12.1f %-12.1f %-10.1f\n", i,
			float64(w.UniqueHot**block)/(1<<20),
			float64(w.NewBlocks**block)/(1<<20),
			float64(w.Writes)/float64(w.Accesses)*100)
	}
	return nil
}

func cmdCat(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (binary or packed)")
	skip := fs.Uint64("skip", 0, "skip the first N records before printing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, closer, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closer()
	if *skip > 0 {
		if err := src.(trace.Positioner).SkipTo(*skip); err != nil {
			return err
		}
	}
	_, err = trace.WriteText(stdout, src)
	return err
}

func cmdConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (binary or packed)")
	to := fs.String("to", "packed", "output format: bin, text, or packed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, closer, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closer()
	return writeOutput(*out, stdout, func(w io.Writer) error { return writeAll(w, src, *to) })
}
