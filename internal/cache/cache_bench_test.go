package cache

import (
	"testing"

	"snake/internal/config"
	"snake/internal/stats"
)

// table1L1 is the Table 1 unified L1: 128 KB, 256-way, 128 B lines (4 sets).
var table1L1 = config.CacheGeom{SizeBytes: 128 * 1024, Ways: 256, LineSize: 128, Latency: 1}

// setAddr returns the address of tag's line in set s.
func setAddr(c *Cache, s int, tag uint64) uint64 {
	return (tag*uint64(c.Geom().Sets()) + uint64(s)) * uint64(c.Geom().LineSize)
}

// refill reserves and fills every free way with lines of fresh tags, from
// *tag up, alternating data and prefetch class, four lines per cycle.
func refill(c *Cache, tag *uint64) {
	for s := 0; s < c.Geom().Sets(); s++ {
		for c.firstFree(s) >= 0 {
			a := setAddr(c, s, *tag)
			cycle := int64(*tag / 4)
			c.Reserve(a, Class(*tag&1), cycle, nil)
			c.Fill(a, cycle)
			*tag++
		}
	}
}

// BenchmarkReserveFullSet times Reserve into a full 256-way set: with nil
// and prefetchClassOnly a victim is evicted (and the new line filled, so the
// set stays full); neverEvict fails after the free-way check.
func BenchmarkReserveFullSet(b *testing.B) {
	for _, bc := range []struct {
		name   string
		filter VictimFilter
		evicts bool
	}{
		{"nil", nil, true},
		{"prefetchClassOnly", prefetchClassOnly, true},
		{"neverEvict", neverEvict, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(table1L1)
			ways := uint64(table1L1.Ways)
			for w := uint64(0); w < ways; w++ {
				a := setAddr(c, 0, w)
				c.Reserve(a, ClassPrefetch, int64(w), nil)
				c.Fill(a, int64(w))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The victim is always the oldest line, so the 2×ways tag
				// ring never reserves a resident tag.
				a := setAddr(c, 0, (ways+uint64(i))%(2*ways))
				cycle := int64(ways) + int64(i)
				_, ok := c.Reserve(a, ClassPrefetch, cycle, bc.filter)
				if ok != bc.evicts {
					b.Fatalf("Reserve ok = %v, want %v", ok, bc.evicts)
				}
				if ok {
					c.Fill(a, cycle)
				}
			}
		})
	}
}

// BenchmarkTouchHit times a demand hit on a resident data line of a full
// 256-way set: "mru" re-touches the most recently used line, which keeps its
// victim-list place; "lru" hits the least recently used line, which moves to
// the list's tail.
func BenchmarkTouchHit(b *testing.B) {
	for _, bc := range []struct {
		name string
		lru  bool
	}{{"mru", false}, {"lru", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(table1L1)
			var addrs []uint64
			for w := 0; w < table1L1.Ways; w++ {
				a := setAddr(c, 0, uint64(w))
				c.Reserve(a, ClassData, int64(w), nil)
				c.Fill(a, int64(w))
				c.Touch(a, int64(w))
				addrs = append(addrs, a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[len(addrs)-1]
				if bc.lru {
					a = addrs[i%len(addrs)]
				}
				if !c.Hit(a, int64(table1L1.Ways+i)).Present {
					b.Fatal("resident line missed")
				}
			}
		})
	}
}

// BenchmarkFreeQuarter times the §3.2 bulk free of a full Table 1 L1 (256
// lines out of 1024); the refill between iterations is not timed.
func BenchmarkFreeQuarter(b *testing.B) {
	l := NewL1(table1L1, L1Options{Decoupled: true, MSHREntries: 32, MergeCap: 4, MissQueueSize: 16}, &stats.Sim{})
	var tag uint64
	refill(l.cache, &tag)
	l.FreeQuarter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refill(l.cache, &tag)
		b.StartTimer()
		l.FreeQuarter()
	}
}
