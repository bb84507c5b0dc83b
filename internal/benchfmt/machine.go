package benchfmt

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// MachineKeys are the configuration keys MachineConfig writes. Two
// snapshots whose values for any of them differ were measured on
// different machines or toolchains, so their timings do not compare.
var MachineKeys = []string{"goos", "goarch", "cpu", "gomaxprocs", "go"}

// MachineConfig returns configuration lines identifying the machine and
// toolchain a snapshot is measured on, keyed by MachineKeys in order.
func MachineConfig() []Config {
	return []Config{
		{Key: "goos", Value: runtime.GOOS},
		{Key: "goarch", Value: runtime.GOARCH},
		{Key: "cpu", Value: cpuModel()},
		{Key: "gomaxprocs", Value: strconv.Itoa(runtime.GOMAXPROCS(0))},
		{Key: "go", Value: runtime.Version()},
	}
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown" where
// that file does not exist or names no model.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			if v = strings.TrimSpace(v); v != "" {
				return v
			}
		}
	}
	return "unknown"
}
