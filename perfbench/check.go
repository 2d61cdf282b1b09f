package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"redoop/internal/experiments"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
)

// digest is an order-independent hash of a recurrence's output
// multiset: the engine emits pairs in partition order and the baseline
// in its own, so outputs compare as multisets, and hashing each pair
// avoids sorting tens of thousands of join pairs per step.
type digest struct {
	n    int
	a, b uint64
}

func digestOf(out []records.Pair) digest {
	d := digest{n: len(out)}
	for _, p := range out {
		h := pairHash(p)
		d.a += mix64(h)
		d.b += mix64(h ^ 0x9e3779b97f4a7c15)
	}
	return d
}

// pairHash is FNV-1a over the key length, key and value, so a byte
// moving between key and value changes the hash.
func pairHash(p records.Pair) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range [4]byte{byte(len(p.Key)), byte(len(p.Key) >> 8), byte(len(p.Key) >> 16), byte(len(p.Key) >> 24)} {
		h = (h ^ uint64(c)) * prime
	}
	for _, c := range p.Key {
		h = (h ^ uint64(c)) * prime
	}
	for _, c := range p.Value {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// inputDigest hashes a generated stream, so repeated generations of one
// seed can be checked for identity.
func inputDigest(in *inputs) digest {
	var d digest
	for _, pane := range in.batches {
		for _, batch := range pane {
			for _, r := range batch {
				h := pairHash(records.Pair{Value: r.Data}) ^ mix64(uint64(r.Ts))
				d.n++
				d.a += mix64(h)
				d.b += mix64(h ^ 0x9e3779b97f4a7c15)
			}
		}
	}
	return d
}

// reference is the oracle-verified output of every recurrence of one
// round, per (workload, seed): digests[query][recurrence].
type reference struct {
	digests [][]digest
	// oracle is the summed cost of the oracle.Check calls.
	oracle cost
	// chains fold each query's window outputs the way
	// experiments.RunCrossQueryReuse digests them, over the windows
	// every query of the stream completes.
	chains []*chainDigest
}

// lookup returns the reference digest of query q's recurrence r.
func (ref *reference) lookup(q, r int) (digest, bool) {
	if q >= len(ref.digests) || r >= len(ref.digests[q]) {
		return digest{}, false
	}
	return ref.digests[q][r], true
}

// chainDigest reproduces experiments.RunCrossQueryReuse's per-query
// OutputDigest: SHA-256 chained over each window's canonically sorted,
// encoded pairs, for the first limit windows.
type chainDigest struct {
	h     [32]byte
	n     int
	limit int
}

func (c *chainDigest) add(out []records.Pair) {
	if c.n >= c.limit {
		return
	}
	cp := append([]records.Pair(nil), out...)
	mapreduce.SortPairs(cp)
	c.h = sha256.Sum256(append(c.h[:], records.EncodePairs(cp)...))
	c.n++
}

func (c *chainDigest) sum() string { return hex.EncodeToString(c.h[:]) }

// crossCheckFleet runs experiments.RunCrossQueryReuse (reuse on, no
// cache limit, no observers) on the same seed and volume and requires
// each query's output digest to equal the fleet-shared reference's over
// the same windows.
func crossCheckFleet(ws *workloadSpec, seed int64, ref *reference) error {
	windows := ref.chains[0].limit
	cfg := baseConfig(seed, execWorkers)
	cfg.Windows = windows
	cfg.RecordsPerWindow = ws.perPane[0] * int(window60/slide15)
	rep, err := experiments.RunCrossQueryReuse(cfg, true)
	if err != nil {
		return fmt.Errorf("fleet-shared cross-check: %w", err)
	}
	for i, q := range rep.Queries {
		c := ref.chains[i]
		if c.n != windows {
			return fmt.Errorf("fleet-shared cross-check: query %s has %d reference windows, want %d", q.Query, c.n, windows)
		}
		if got := c.sum(); got != q.OutputDigest {
			return fmt.Errorf("fleet-shared cross-check: query %s digest %s, RunCrossQueryReuse %s", q.Query, got, q.OutputDigest)
		}
	}
	return nil
}
