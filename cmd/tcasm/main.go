// Command tcasm is the toy-ISA toolchain driver: it assembles a program
// from the textual assembly syntax (see internal/isa.Assemble) and then
// runs it, disassembles it, emits its trace, or measures predictor
// accuracy on it — so new workloads can be written as .s files without
// touching Go.
//
// Usage:
//
//	tcasm -s prog.s -run                       ; execute, print register state
//	tcasm -s prog.s -dis                       ; disassemble
//	tcasm -s prog.s -o prog.tcstore -n 1000000 ; emit a trace-store file
//	tcasm -s prog.s -predict -n 1000000        ; predictor accuracy on the program
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cpu"
	"repro/internal/fsutil"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	var (
		srcPath = flag.String("s", "", "assembly source file (required)")
		doRun   = flag.Bool("run", false, "execute and print machine state")
		doDis   = flag.Bool("dis", false, "disassemble")
		predict = flag.Bool("predict", false, "run predictor accuracy over the looping trace")
		pipe    = flag.Int("pipe", 0, "render a pipeline diagram of the first N instructions")
		out     = flag.String("o", "", "emit a trace-store file (TCSTORE1)")
		n       = flag.Int64("n", 1_000_000, "instruction budget for -o/-predict/-run")
	)
	flag.Parse()
	if *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "tcasm: -n must be positive, got %d\n", *n)
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	exitOn(err)
	prog, err := isa.Assemble(string(src))
	exitOn(err)
	fmt.Printf("assembled %s: %d instructions, %d data words, entry %#x\n",
		prog.Name, len(prog.Code), len(prog.Data), prog.AddrOf(prog.Entry))

	switch {
	case *pipe > 0:
		res, tl := cpu.RunTimeline(vm.NewLooping(prog), *n,
			sim.NewEngine(sim.DefaultConfig()), cpu.DefaultConfig(), *pipe)
		exitOn(res.Err)
		fmt.Print(tl.String())
		fmt.Printf("total: %d instructions in %d cycles (IPC %.2f, %d mispredicts)\n",
			res.Instructions, res.Cycles, res.IPC(), res.Mispredicts)
	case *doDis:
		fmt.Print(isa.Disassemble(prog))
	case *doRun:
		m := vm.New(prog)
		steps, err := m.Run(*n)
		exitOn(err)
		fmt.Printf("retired %d instructions (halted=%v)\n", steps, m.Halted())
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if v := m.Reg(r); v != 0 {
				fmt.Printf("  r%-2d = %d\n", r, v)
			}
		}
	case *out != "":
		// A program that faults leaves no file, nor a changed one, at *out.
		var count int64
		exitOn(fsutil.WriteFileAtomic(*out, func(w io.Writer) (err error) {
			count, err = trace.WriteStore(w, trace.NewLimit(vm.NewLooping(prog), *n), trace.StoreOptions{})
			return err
		}))
		fmt.Printf("wrote %d records to %s\n", count, *out)
	case *predict:
		factory := trace.FactoryFunc(func() trace.Source {
			return trace.NewLimit(vm.NewLooping(prog), *n)
		})
		res := sim.RunAccuracy(factory, *n, sim.DefaultConfig())
		exitOn(res.Err)
		fmt.Printf("BTB baseline over %d instructions:\n", res.Instructions)
		fmt.Printf("  conditional mispred:   %6.2f%%\n", 100*res.Conditional.MispredictRate())
		fmt.Printf("  indirect jump mispred: %6.2f%%  (%d jumps)\n",
			100*res.IndirectMispredictRate(), res.Indirect.Predictions)
	default:
		fmt.Println("nothing to do: pass -run, -dis, -predict or -o (see -help)")
	}
}

// exitOn reports a non-nil err on stderr and exits 1.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcasm:", err)
		os.Exit(1)
	}
}
