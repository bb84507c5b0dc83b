// Command tracegen generates workload traces: it can save them as
// TCSTORE1 trace-store files (the format tcpredict reads), print
// per-trace statistics, or dump records as text for inspection.
//
// Usage:
//
//	tracegen -w perl -n 1000000 -o perl.tcstore
//	tracegen -w gcc -n 500000 -stats
//	tracegen -w xlisp -n 50 -dump
//	tracegen -w gcc -n 10000000 -o gcc.tcstore -compress
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fsutil"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wname = flag.String("w", "perl", "workload name")
		n     = flag.Int64("n", 1_000_000, "number of instructions")
		out   = flag.String("o", "", "output trace-store file (TCSTORE1)")
		comp  = flag.Bool("compress", false, "store each block group as the fields its predictors miss, flate-compressed")
		doSt  = flag.Bool("stats", false, "print trace statistics")
		dump  = flag.Bool("dump", false, "dump records as text to stdout")
	)
	flag.Parse()
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -n must be positive, got %d\n", *n)
		os.Exit(2)
	}

	w, err := workload.ByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	src := trace.NewLimit(w.Open(), *n)

	switch {
	case *dump:
		var r trace.Record
		for src.Next(&r) {
			if r.Class.IsBranch() {
				fmt.Printf("%#08x  %-13s taken=%-5v target=%#08x\n",
					r.PC, r.Class, r.Taken, r.Target)
			} else {
				fmt.Printf("%#08x  %-13s dst=r%d src=r%d,r%d\n",
					r.PC, r.Op, r.Dst, r.Src1, r.Src2)
			}
		}
	case *out != "":
		// A failed run leaves no file, nor a changed one, at *out.
		var count int64
		if err := fsutil.WriteFileAtomic(*out, func(w io.Writer) (err error) {
			count, err = trace.WriteStore(w, src, trace.StoreOptions{Compress: *comp})
			return err
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s\n", count, *out)
	default:
		*doSt = true
	}

	if *doSt {
		st := trace.NewStats().Consume(trace.NewLimit(w.Open(), *n))
		fmt.Printf("workload:            %s (%s)\n", w.Name, w.Description)
		fmt.Printf("instructions:        %d\n", st.Instructions)
		fmt.Printf("branches:            %d (%.2f%%)\n", st.Branches,
			100*float64(st.Branches)/float64(st.Instructions))
		fmt.Printf("  conditional:       %d\n", st.CondDirect)
		fmt.Printf("  uncond direct:     %d\n", st.UncondDirect)
		fmt.Printf("  calls:             %d\n", st.Calls)
		fmt.Printf("  returns:           %d\n", st.Returns)
		fmt.Printf("  indirect jumps:    %d (%.3f%% of instructions)\n", st.IndJumps,
			100*float64(st.IndJumps)/float64(st.Instructions))
		fmt.Printf("static ind jumps:    %d\n", st.StaticIndJumps())
		fmt.Printf("max targets/jump:    %d\n", st.MaxTargets())
		fmt.Printf("polymorphic (dyn):   %.1f%%\n", 100*st.PolymorphicFraction())
		hist := st.TargetHistogram(false)
		fmt.Printf("targets histogram (static sites): ")
		for b := 1; b <= trace.TargetHistogramCap; b++ {
			if hist[b] > 0 {
				fmt.Printf("%d:%d ", b, hist[b])
			}
		}
		fmt.Println()
		fmt.Printf("instruction mix:     ")
		for op := 0; op < trace.NumOpClasses; op++ {
			if st.OpMix[op] > 0 {
				fmt.Printf("%s %.1f%%  ", trace.OpClass(op),
					100*float64(st.OpMix[op])/float64(st.Instructions))
			}
		}
		fmt.Println()
	}
}
