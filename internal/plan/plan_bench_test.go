package plan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// The memo absorbs one probe per candidate pair in the DP inner loops; these
// benches compare the Go-map reference memo against the SoA Table the DP hot
// path runs on, in both of its addressings: random 64-bit keys can only hash
// (the paper's §5 Murmur3 layout), keys below 2^16 at a dense hint are
// direct-addressed.
func benchKeys(n int, space uint64) []bitset.Mask {
	rng := rand.New(rand.NewSource(1))
	keys := make([]bitset.Mask, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = bitset.Mask(rng.Uint64() & space)
		}
	}
	return keys
}

func BenchmarkMemoGet(b *testing.B) {
	keys := benchKeys(1<<16, math.MaxUint64)
	m := NewMemo(20)
	for _, k := range keys {
		m.Put(k, &Node{Set: k})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Get(keys[i&(len(keys)-1)]) == nil {
			b.Fatal("miss")
		}
	}
}

// tableLayouts are the two addressings as NewTable picks them.
var tableLayouts = []struct {
	name  string
	n     int
	space uint64
}{
	{"hash", 64, math.MaxUint64},
	{"direct", 16, 1<<16 - 1},
}

func benchTable(b *testing.B, n int, keys []bitset.Mask, direct bool) *Table {
	t := NewTable(n, len(keys))
	if (t.keys == nil) != direct {
		b.Fatalf("NewTable(%d, %d) direct = %v", n, len(keys), t.keys == nil)
	}
	return t
}

func BenchmarkTableView(b *testing.B) {
	for _, l := range tableLayouts {
		b.Run(l.name, func(b *testing.B) {
			keys := benchKeys(1<<16, l.space)
			t := benchTable(b, l.n, keys, l.name == "direct")
			for _, k := range keys {
				t.Put(k, Winner{Left: k.LowestBit(), Right: k.Diff(k.LowestBit()), Cost: 1, Found: true})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := t.View(keys[i&(len(keys)-1)]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkTableCost is the probe a pruned candidate pair pays: presence and
// the cost lane, no payload.
func BenchmarkTableCost(b *testing.B) {
	for _, l := range tableLayouts {
		b.Run(l.name, func(b *testing.B) {
			keys := benchKeys(1<<16, l.space)
			t := benchTable(b, l.n, keys, l.name == "direct")
			for _, k := range keys {
				t.Put(k, Winner{Left: k.LowestBit(), Right: k.Diff(k.LowestBit()), Cost: 1, Found: true})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := t.Cost(keys[i&(len(keys)-1)]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
