package main

import (
	"encoding/json"
	"hash/fnv"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle values
// for an even count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := sorted(vs)
	return s[0], s[len(s)-1]
}

// percentile returns the q-quantile (0..1) of vs by nearest rank.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the default "exclusive" method), which
// is what the acceptance procedure for this benchmark computes spreads with.
// It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run spread of a metric: the distance between the
// first and third quartile as a share of the median (for three values that
// is max-min over the median). It is 0 for fewer than two values.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / med
}

// digest is FNV-1a over the JSON encoding of parts, in order. The simulator
// is deterministic for a fixed seed, so two commits that differ only in host
// speed produce the same digest.
func digest(parts ...any) (uint64, error) {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}
