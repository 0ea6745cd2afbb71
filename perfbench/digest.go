package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"cord/internal/stats"
)

// runDigest hashes what a simulation job's outputs are judged by: the
// simulated completion time, the per-class inter- and intra-host traffic,
// and every core's op counts, finish time and stall cycles per kind. extra
// lines (such as a service's request statistics) are folded in after.
func runDigest(r *stats.Run, extra ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "time %d\n", r.Time)
	t := &r.Traffic
	for c := 0; c < stats.NumClasses; c++ {
		fmt.Fprintf(h, "class %d inter %d/%d intra %d/%d\n",
			c, t.InterBytes[c], t.InterMsgs[c], t.IntraBytes[c], t.IntraMsgs[c])
	}
	for i := range r.Procs {
		p := &r.Procs[i]
		fmt.Fprintf(h, "core %d ops %d rel %d rlx %d fin %d stall %v\n",
			i, p.Ops, p.Releases, p.Relaxed, p.Finished, p.Stall)
	}
	for _, e := range extra {
		fmt.Fprintln(h, e)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
