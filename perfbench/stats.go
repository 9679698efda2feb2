package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported; fewer make the value jump from run to run.
const minBeyond = 10

// minClassGap is the least distance, in percentage points, between a
// reported percentile and a boundary between request classes. A
// percentile at a boundary swings between two classes' costs.
const minClassGap = 5.0

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and how many samples lie beyond it. ok is false when fewer than
// minBeyond do, and the value must not be reported.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(n) / 100))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	beyond = n - k
	return s[k-1], beyond, beyond >= minBeyond
}

// median is the plain median (mean of the middle pair for even n), used
// for the set-up times, which are too few for the percentile rule.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classBoundaries returns the cumulative shares, in percent, at which
// one request class ends and the next begins when the samples are
// sorted by time. order lists the classes from cheapest to dearest.
func classBoundaries(counts map[string]int, order []string) []float64 {
	total := 0
	for _, c := range order {
		total += counts[c]
	}
	var out []float64
	cum := 0
	for _, c := range order[:len(order)-1] {
		cum += counts[c]
		if counts[c] == 0 || cum == total {
			continue
		}
		out = append(out, 100*float64(cum)/float64(total))
	}
	return out
}

// boundaryGap returns the distance from p to the nearest class boundary
// (+Inf when there is none).
func boundaryGap(p float64, boundaries []float64) float64 {
	gap := math.Inf(1)
	for _, b := range boundaries {
		gap = math.Min(gap, math.Abs(p-b))
	}
	return gap
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportPercentile computes a percentile under both reporting rules and
// returns it with a one-line account; ok is false when it is refused.
func reportPercentile(name string, xs []float64, p float64, boundaries []float64) (v float64, line string, ok bool) {
	v, beyond, ok := percentile(xs, p)
	gap := boundaryGap(p, boundaries)
	switch {
	case !ok:
		return v, fmt.Sprintf("%s refused: %d samples beyond p%g of %d (need %d)", name, beyond, p, len(xs), minBeyond), false
	case gap < minClassGap:
		return v, fmt.Sprintf("%s refused: p%g is %.1f points from a class boundary (need %.0f)", name, p, gap, minClassGap), false
	}
	gapText := "no class boundary"
	if !math.IsInf(gap, 1) {
		gapText = fmt.Sprintf("%.1f points from the nearest class boundary", gap)
	}
	return v, fmt.Sprintf("%s = %.4f ms  (p%g of %d samples, %d beyond, %s)", name, v, p, len(xs), beyond, gapText), true
}

// formatShares renders class counts as "name n (share%)" in order.
func formatShares(counts map[string]int, order []string) string {
	total := 0
	for _, c := range order {
		total += counts[c]
	}
	parts := make([]string, 0, len(order))
	for _, c := range order {
		parts = append(parts, fmt.Sprintf("%s %d (%.1f%%)", c, counts[c], 100*float64(counts[c])/float64(max(total, 1))))
	}
	return strings.Join(parts, ", ")
}
