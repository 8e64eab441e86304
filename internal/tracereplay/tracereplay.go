// Package tracereplay reads and writes recorded key-value traces, so real
// access patterns can be replayed against candidate hierarchies and
// migration policies instead of a synthetic generator (the storage-system
// design question of §5.3, answered for *your* workload). The harness's
// Trace workload replays them.
//
// The trace format is one operation per line:
//
//	R <key>          read the tuple under key
//	W <key>          update the tuple under key
//	# comment        ignored, as are blank lines
//
// Keys are decimal uint64s. A replay loads a table covering every key in the
// trace, then streams the operations through one or more workers in
// round-robin shards, measuring virtual-time throughput and latency.
package tracereplay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/spitfire-db/spitfire/internal/zipf"
)

// Op is one trace operation.
type Op struct {
	Write bool
	Key   uint64
}

// Parse reads a trace. It fails on the first malformed line.
func Parse(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("tracereplay: line %d: want `R|W <key>`, got %q", lineNo, line)
		}
		var write bool
		switch fields[0] {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("tracereplay: line %d: unknown op %q", lineNo, fields[0])
		}
		key, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracereplay: line %d: bad key: %v", lineNo, err)
		}
		ops = append(ops, Op{Write: write, Key: key})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, errors.New("tracereplay: empty trace")
	}
	return ops, nil
}

// Generate writes a synthetic Zipfian trace (for demos and tests).
func Generate(w io.Writer, ops int, keys uint64, theta float64, writePct int, seed uint64) error {
	rng := zipf.NewRand(seed)
	gen := zipf.NewGenerator(keys, theta, rng)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# synthetic trace: %d ops over %d keys, zipf %.2f, %d%% writes\n",
		ops, keys, theta, writePct)
	for i := 0; i < ops; i++ {
		op := "R"
		if int(rng.Uint64n(100)) < writePct {
			op = "W"
		}
		fmt.Fprintf(bw, "%s %d\n", op, gen.Next())
	}
	return bw.Flush()
}
