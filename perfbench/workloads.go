package main

import (
	"fmt"
	"math/rand"
	"slices"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/bench"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// limit bounds every run in simulated time; each workload settles in
// under a tenth of a second of it.
const limit = 10 * sim.Second

// dbKeys is the number of search keys one dbsearch128 run feeds the
// array.  A run is built fresh, so the keys also set how much search
// work stands against the 50–75 ms build.
const dbKeys = 4

// workload is one benchmark configuration: how to build a system ready
// to Run, how many worker goroutines drive it, and what its output
// must be.
type workload struct {
	name    string
	workers int
	// seeded reports whether the seed changes the workload's input; the
	// fixed programs ignore it.
	seeded bool
	// setup builds the system ready to Run and returns the function
	// that runs it and reports the program's answers.
	setup func() (*network.System, func() ([]int64, network.Report), error)
	want  expectation
}

// expectation is what a correct run must produce: the program's
// answers, the external (link) message and byte counts its processes
// exchange — fixed by the occam sources, not by timing; zero means the
// workload does not pin them — and the nodes left blocked when it
// settles.
type expectation struct {
	answers     []int64
	extMessages uint64
	dataBytes   uint64
	// blocked lists, in node order, the nodes whose processes are
	// servers still waiting for input when the program is done.
	blocked []string
}

// newWorkload returns the named workload with its inputs drawn from
// seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "ring8":
		// Eight nodes each send and receive 256 words of 4 bytes.
		return benchWorkload(name, "ring8", nil, expectation{extMessages: 8 * 256 * 2, dataBytes: 8 * 256 * 4}), nil
	case "grid3x3-fused":
		groups, err := bench.FuseGroups("grid3x3", 1)
		if err != nil {
			return nil, err
		}
		// Nine nodes each stream 128 words out of and into two links.
		return benchWorkload(name, "grid3x3", groups, expectation{extMessages: 9 * 2 * 128 * 2, dataBytes: 9 * 2 * 128 * 4}), nil
	case "compute8":
		// One word per node around the ring.
		return benchWorkload(name, "compute8", nil, expectation{extMessages: 8 * 2, dataBytes: 8 * 4}), nil
	case "dbsearch128":
		return dbWorkload(name, dbsearch.Defaults128(), searchKeys(seed, dbKeys, dbsearch.Defaults128().KeySpace), 2), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"ring8", "grid3x3-fused", "compute8", "dbsearch128"}

// benchWorkload wraps one of internal/bench's fixed programs, built
// with the given fusion placement, at one worker.
func benchWorkload(name, program string, groups [][]string, want expectation) *workload {
	return &workload{
		name:    name,
		workers: 1,
		setup: func() (*network.System, func() ([]int64, network.Report), error) {
			s, err := bench.BuildPlaced(program, groups)
			if err != nil {
				return nil, nil, err
			}
			return s, func() ([]int64, network.Report) { return nil, s.Run(limit) }, nil
		},
		want: want,
	}
}

// dbWorkload is the paper's database search array fed a fixed list of
// keys, with every answer known from dbsearch.Reference.
func dbWorkload(name string, p dbsearch.Params, keys []int64, workers int) *workload {
	want := expectation{answers: make([]int64, len(keys))}
	for i, k := range keys {
		want.answers[i] = dbsearch.Reference(p, k)
	}
	// Only the root hears the end of the key stream; every other node's
	// searcher and merger stay waiting for the next request.
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if r > 0 || c > 0 {
				want.blocked = append(want.blocked, fmt.Sprintf("n%d.%d", r, c))
			}
		}
	}
	return &workload{
		name:    name,
		workers: workers,
		seeded:  true,
		setup: func() (*network.System, func() ([]int64, network.Report), error) {
			d, err := dbsearch.Build(p)
			if err != nil {
				return nil, nil, err
			}
			return d.Net, func() ([]int64, network.Report) {
				got, rep := d.RunSearches(keys, limit)
				if !d.Results.Done {
					// The root never sent its exit command: the
					// answers are incomplete whatever they hold.
					rep.Settled = false
				}
				return slices.Clone(got), rep
			}, nil
		},
		want: want,
	}
}

// searchKeys draws n search keys in [0, space) from seed.
func searchKeys(seed int64, n, space int) []int64 {
	r := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = r.Int63n(int64(space))
	}
	return keys
}
