// tcbenchdiff compares two sets of benchmark snapshots with real
// statistics: per experiment it reports old and new medians with
// order-statistic confidence intervals, the delta between them, and a
// Mann-Whitney U p-value — and exits non-zero only when a regression is
// statistically significant (p < -alpha) AND past the practical floor
// (-tolerance). One noisy run can no longer fail a build, and a
// consistent 2% slowdown no longer hides under a 10% threshold.
//
// Each side is a comma-separated list of snapshot files in the standard
// Go benchmark format (`tcsim -benchfmt` or `tcsweep -benchfmt`, ideally
// with `-count N -warmup 1` so each carries N repetitions). Every (file,
// repetition) contributes one sample, so all of these work:
//
//	tcbenchdiff old.txt new.txt                    # N-rep benchfmt sets
//	tcbenchdiff OLD1.txt,OLD2.txt NEW1.txt,NEW2.txt
//	tcbenchdiff -filter "exp:table4" -group-by exp old.txt new.txt
//
// Verdicts per experiment:
//
//	REGRESSION      significant slowdown >= tolerance: gates (exit 1)
//	improvement     significant speedup
//	~               no significant difference
//	too noisy       a side's CI is too wide to support any call (-max-noise)
//	need >= 2 runs  a side has a single sample: a point, not a distribution
//
// The "too noisy" skip replaces the old point-estimate -min-ms floor:
// instead of exempting experiments that were fast once, it exempts
// experiments whose measured variance genuinely cannot support a claim.
//
// Snapshots record the machine they ran on (goos, goarch, cpu,
// gomaxprocs, go). When OLD and NEW disagree on any of those, a one-line
// warning goes to stderr: the comparison still runs, but its timings are
// not like for like.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	opts := defaultOptions()
	flag.Float64Var(&opts.alpha, "alpha", opts.alpha, "significance level: regressions with p >= alpha do not gate")
	flag.Float64Var(&opts.tolerance, "tolerance", opts.tolerance, "practical floor: significant slowdowns below this fraction do not gate (0.01 = 1%)")
	flag.Float64Var(&opts.confidence, "confidence", opts.confidence, "confidence level for the per-side median intervals")
	flag.Float64Var(&opts.maxNoise, "max-noise", opts.maxNoise, "CI half-width fraction above which an experiment is too noisy to call")
	flag.StringVar(&opts.filter, "filter", "", `result filter, e.g. "exp:table4" or "workload:cxx !model:event"`)
	flag.StringVar(&opts.groupBy, "group-by", opts.groupBy, `projection for row keys, e.g. "exp" or ".name,workload"`)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tcbenchdiff [flags] OLD[,OLD2,...] NEW[,NEW2,...]\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Files are Go benchmark format (tcsim -benchfmt -count N).\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if opts.alpha <= 0 || opts.alpha >= 1 {
		fmt.Fprintln(os.Stderr, "tcbenchdiff: -alpha must be in (0, 1)")
		os.Exit(2)
	}
	if opts.confidence <= 0 || opts.confidence >= 1 {
		fmt.Fprintln(os.Stderr, "tcbenchdiff: -confidence must be in (0, 1)")
		os.Exit(2)
	}
	if opts.tolerance < 0 || opts.maxNoise <= 0 {
		fmt.Fprintln(os.Stderr, "tcbenchdiff: -tolerance must be >= 0 and -max-noise > 0")
		os.Exit(2)
	}
	os.Exit(runDiff(opts, flag.Arg(0), flag.Arg(1), os.Stdout, os.Stderr))
}
