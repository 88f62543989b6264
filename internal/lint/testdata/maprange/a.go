// Fixture for the maprange rule: map iteration feeding order-sensitive
// output versus the sanctioned sorted-keys and map-fill shapes.
package maprangefix

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func badAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func badFprintf(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}

func okSortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func okMapFill(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = 2 * v
	}
	return out
}

func okLoopLocalAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

func okSliceRange(xs []string, w io.Writer) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}

func badFloatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

func okFloatSumPerIteration(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		out[k] = sum
	}
	return out
}

func okIntSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
