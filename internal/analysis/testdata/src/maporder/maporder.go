// Package maporder is the annotated corpus of the retired maporder
// analyzer, kept as detflow's regression test: an order-dependent value is
// reported where it lands (a return or an output write), not where it is
// accumulated.
package maporder

import (
	"fmt"
	"sort"
)

// scanFloats mimics kvstore.Table.ScanFloats: a snapshot keyed by
// "row/column" whose iteration order is randomized by the runtime.
func scanFloats() map[string]float64 {
	return map[string]float64{"r1/c": 1.5, "r2/c": 2.5}
}

// sumState is the pre-PR-2 ScanFloats bug verbatim: summing a float
// snapshot in map order. Two runs of the same wave produce different
// last-bit sums, which cascades into different ι/ε values and different
// skip decisions — the regression this analyzer locks out.
func sumState() float64 {
	var sum float64
	for _, v := range scanFloats() {
		sum += v
	}
	return sum // want `flows into return value sum: tainted by map-order`
}

// meanState accumulates through a plain assignment instead of +=.
func meanState(state map[string]float64) float64 {
	var mean float64
	for _, v := range state {
		mean = mean + v/float64(len(state))
	}
	return mean // want `flows into return value mean: tainted by map-order`
}

// unsortedKeys leaks iteration order through an escaping slice.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want `flows into return value keys: tainted by map-order`
}

// dumpState writes in iteration order.
func dumpState(m map[string]float64) {
	for k, v := range m {
		fmt.Printf("%s=%g\n", k, v) // want `output write fmt.Printf executes inside a range over a map`
	}
}

// sortedKeys is the sanctioned fix: collect, sort, then use. The append
// must stay clean or the fix pattern itself would be flagged.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// countValues accumulates integers: exact arithmetic, order-independent.
func countValues(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

// sumSlice ranges over a slice, whose order is fixed.
func sumSlice(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// invert writes through map keys: the resulting map is order-independent.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// localScratch appends to a slice scoped inside the loop body; order
// cannot escape a single iteration.
func localScratch(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var scratch []int
		scratch = append(scratch, vs...)
		total += len(scratch)
	}
	return total
}

// gateOnly sums floats over a map, but the sum only gates a constant log
// line: no order-dependent value is stored, returned or printed. The parent
// maporder analyzer flagged the accumulation.
func gateOnly(m map[string]float64) {
	var total float64
	for _, v := range m {
		total += v
	}
	if total > 1 {
		fmt.Println("over budget")
	}
}
