package match

import (
	"testing"

	"provmark/internal/graph"
)

// propDiffWeightTwoLoop is the generalization objective as first
// written, with one walk over each map: keys of a that b lacks or
// disagrees on, plus keys of b that a lacks. It is the oracle for the
// one-walk propDiffWeight.
func propDiffWeightTwoLoop(a, b graph.Properties) int {
	w := 0
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			w++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			w++
		}
	}
	return w
}

// propsFromBytes builds two property maps from fuzzer bytes. Each byte
// sets key c&7 to value c>>3&3 on a only, on b only, on both, or on both
// with b's value changed (c>>5&3), so the maps share keys often.
func propsFromBytes(data []byte) (a, b graph.Properties) {
	a, b = graph.Properties{}, graph.Properties{}
	for _, c := range data {
		k, v := string(rune('a'+c&7)), string(rune('0'+c>>3&3))
		switch c >> 5 & 3 {
		case 0:
			a[k] = v
		case 1:
			b[k] = v
		case 2:
			a[k], b[k] = v, v
		default:
			a[k], b[k] = v, v+"'"
		}
	}
	return a, b
}

// FuzzPropDiffWeight holds the one-walk propDiffWeight to the two-loop
// oracle, in both argument orders.
func FuzzPropDiffWeight(f *testing.F) {
	f.Add([]byte{})                       // empty maps
	f.Add([]byte{0x00, 0x21})             // one-sided keys: a.a, b.b
	f.Add([]byte{0x60, 0x69})             // equal keys, different values
	f.Add([]byte{0x40, 0x00, 0x21, 0x62}) // all four kinds at once
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := propsFromBytes(data)
		for _, pair := range [][2]graph.Properties{{a, b}, {b, a}} {
			if got, want := propDiffWeight(pair[0], pair[1]), propDiffWeightTwoLoop(pair[0], pair[1]); got != want {
				t.Fatalf("propDiffWeight(%v, %v) = %d, two-loop oracle %d", pair[0], pair[1], got, want)
			}
		}
	})
}
