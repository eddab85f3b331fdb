package main

import (
	"bytes"
	_ "embed"
	"go/format"
	"go/parser"
	"go/token"
	"math/rand/v2"
	"slices"
	"time"
)

// The host's speed is not constant. On a shared VM, the time of the same
// simulation on one pinned CPU drifts by up to 1.7x over minutes while
// almost nothing is stolen: the CPU time of identical work moves with it.
// No statistic inside a run removes a change of speed between runs. So
// every untraced run also times a fixed reference kernel that lives in
// this benchmark, not in the system under test, between its pieces of
// work, and reports each time in reference seconds: host seconds scaled
// by refNominal over the run's median kernel time. README.md gives the
// measurements behind the choice of kernel.

// refNominal is the time of one probe on the tuning host in a typical
// phase, so that a reference second there is about a host second.
const refNominal = 0.030

// refCalls is how many kernel calls one probe makes; it keeps the
// fastest. Host noise only ever slows a call, so the fastest of a few is
// the steadiest reading of the speed at that moment.
const refCalls = 5

// refSource is the Go source the kernel parses and prints: this file, so
// the kernel's input changes only with the benchmark.
//
//go:embed speed.go
var refSource []byte

var (
	refKeys  = refInput()
	refBuf   = make([]uint32, len(refKeys))
	refTable = make([]uint64, 1<<15)
	refSink  uint64 // keeps the compiler from dropping the kernel's result
)

func refInput() []uint32 {
	r := rand.New(rand.NewPCG(3, 4))
	keys := make([]uint32, 1<<16)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	return keys
}

// refKernel does a fixed amount of branchy, cache-resident work of the
// kinds the simulator's inner loops do, sorting and hash-table probes,
// plus the allocation-heavy work of a Go program that builds and walks
// pointer structures, parsing and printing Go source, and returns how long
// it took. Kernels that wait on memory or on one long dependency chain
// followed the simulator's drift far less well on the tuning host.
func refKernel() float64 {
	start := time.Now()
	for range 8 {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "speed.go", refSource, parser.ParseComments)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := format.Node(&buf, fset, f); err != nil {
			panic(err)
		}
		refSink += uint64(buf.Len())
	}
	for range 2 {
		copy(refBuf, refKeys)
		slices.Sort(refBuf)
	}
	clear(refTable)
	const mask = 1<<15 - 1
	var hits, inserts uint64
	for i := range 1 << 18 {
		k := uint64(refKeys[i&(1<<16-1)]) ^ uint64(i>>16)
		h := (k * 0x9E3779B97F4A7C15) >> 49
		for refTable[h] != 0 && refTable[h] != k {
			h = (h + 1) & mask
		}
		switch {
		case refTable[h] == k:
			hits++
		case inserts < 1<<14: // the table stays at most half full
			refTable[h] = k
			inserts++
		}
	}
	refSink += uint64(refBuf[len(refBuf)/2]) + hits
	return time.Since(start).Seconds()
}

// speed records the host's speed over a run: the time of every probe.
type speed struct{ probes []float64 }

// probe times the reference kernel now.
func (s *speed) probe() {
	t := refKernel()
	for range refCalls - 1 {
		t = min(t, refKernel())
	}
	s.probes = append(s.probes, t)
}

// probeN takes n probes in a row.
func (s *speed) probeN(n int) {
	for range n {
		s.probe()
	}
}

// scale turns the run's host seconds into reference seconds.
func (s *speed) scale() float64 {
	return refNominal / median(s.probes)
}
