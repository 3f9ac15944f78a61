package tool

import (
	"fmt"
	"io"

	"transputer/internal/network"
	"transputer/internal/sim"
)

// Fusion mode resolution shared by the network tools: how a `-fuse`
// flag and a topology's own `shard` directives combine into the
// placement BuildNetwork applies.  Whatever the mode, results are
// byte-identical; fusion only changes how fast the simulator gets
// there.

// FuseModes documents the accepted -fuse values.
const FuseModes = "off|topo|full"

// ResolveFusion turns a -fuse mode into the topology's final Shards
// placement.  Modes:
//
//	off     ignore any `shard` directives; one node per shard
//	topo    the file's `shard` directives as written (the default)
//	full    every node on one shard
func ResolveFusion(topo *network.Topology, mode string) error {
	switch mode {
	case "topo", "":
		return nil
	case "off":
		topo.Shards = nil
		return nil
	case "full":
		if len(topo.Transputers) < 2 {
			topo.Shards = nil
			return nil
		}
		all := make([]string, len(topo.Transputers))
		for i, t := range topo.Transputers {
			all[i] = t.Name
		}
		topo.Shards = [][]string{all}
		return nil
	default:
		return fmt.Errorf("unknown fuse mode %q (want %s)", mode, FuseModes)
	}
}

// PrintEngineStats reports windowed-engine diagnostics for a finished
// run: the partition, window and barrier counts, mean window span, and
// how deliveries split between the barrier mailbox and the fused
// intra-kernel fast path.  These numbers describe the simulator, not
// the simulated system — they vary with -fuse and -workers, unlike
// every other output.
func PrintEngineStats(w io.Writer, es sim.EngineStats) {
	fmt.Fprintf(w, "engine: %d nodes on %d shards, %d windows (%d barriers, %d shard-windows)\n",
		es.Ports, es.Shards, es.Windows, es.Barriers, es.ShardWindows)
	if es.Windows > 0 {
		fmt.Fprintf(w, "engine: mean window span %v, mean active shards %.2f\n",
			es.SpanSum/sim.Time(es.Windows), float64(es.ShardWindows)/float64(es.Windows))
	}
	fmt.Fprintf(w, "engine: %d cross-shard deliveries via barrier mailbox, %d fused intra-kernel\n",
		es.Cross, es.Fused)
	if es.BarrierWaitNs > 0 {
		fmt.Fprintf(w, "engine: %v wall-clock waiting at window barriers\n",
			(sim.Time)(es.BarrierWaitNs))
	}
}
