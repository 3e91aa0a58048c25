package prefetch

import "testing"

func TestDominoReplaysTemporalSequence(t *testing.T) {
	p := NewDomino()
	// Teach the sequence A B C D twice (line-aligned addresses).
	seq := []uint64{0x1000, 0x5000, 0x2000, 0x9000}
	teach := func() {
		for _, a := range seq {
			e := ev(0, 8, a)
			e.LineAddr = a
			p.OnAccess(e)
		}
	}
	teach()
	teach()
	// Replay: after A, B the pair (A,B) predicts C.
	e := ev(0, 8, seq[0])
	e.LineAddr = seq[0]
	p.OnAccess(e)
	e = ev(0, 8, seq[1])
	e.LineAddr = seq[1]
	reqs := p.OnAccess(e)
	if !contains(reqs, seq[2]) {
		t.Fatalf("Domino did not replay the sequence: %v", addrs(reqs))
	}
}

func TestDominoInterleavingBreaksCorrelation(t *testing.T) {
	// Two warps with their own sequences, perfectly interleaved: the global
	// stream pairs never repeat, so Domino stays silent — the GPU failure
	// mode §6.1 implies.
	p := NewDomino()
	issued := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			for w := 0; w < 2; w++ {
				a := uint64(0x100000*(w+1)) + uint64(round*8+i)*uint64(w*640+128)
				e := ev(w, 8, a)
				e.LineAddr = a &^ 127
				issued += len(p.OnAccess(e))
			}
		}
	}
	if issued > 8 {
		t.Errorf("Domino issued %d prefetches from an interleaved stream; expected near zero", issued)
	}
}

func TestDominoTableBounded(t *testing.T) {
	p := NewDomino()
	p.MaxEntries = 16
	for i := 0; i < 1000; i++ {
		a := uint64(i) * 128
		e := ev(0, 8, a)
		e.LineAddr = a
		p.OnAccess(e)
	}
	if len(p.table) > 16 {
		t.Errorf("table grew to %d entries, cap is 16", len(p.table))
	}
}

func TestBingoLearnsFootprint(t *testing.T) {
	p := NewBingo()
	// Epoch 1: touch lines 0, 2, 5 of region 0x10000 (trigger pc 8).
	for _, off := range []uint64{0, 2 * 128, 5 * 128} {
		p.OnAccess(ev(0, 8, 0x10000+off))
	}
	// Open enough other regions (different PC so their single-line
	// footprints do not clobber the short event) to retire the first one.
	for i := 1; i <= 70; i++ {
		p.OnAccess(ev(0, 16, uint64(0x100000+i*4096)))
	}
	// Trigger an identical access pattern in a fresh region via the short
	// event (same PC, same offset): the footprint replays.
	reqs := p.OnAccess(ev(0, 8, 0xAAAA000))
	if !contains(reqs, 0xAAAA000+2*128) || !contains(reqs, 0xAAAA000+5*128) {
		t.Fatalf("Bingo did not replay the footprint: %v", addrs(reqs))
	}
	// The trigger line itself is not re-requested.
	if contains(reqs, 0xAAAA000) {
		t.Error("Bingo prefetched the trigger line")
	}
}

func TestBingoLongEventPreferred(t *testing.T) {
	p := NewBingo()
	// Long event: trigger (pc 8, addr X) with footprint {0,1}.
	p.OnAccess(ev(0, 8, 0x20000))
	p.OnAccess(ev(0, 8, 0x20080))
	// Short event for the same pc+offset learns a different footprint via
	// another region.
	p.OnAccess(ev(0, 8, 0x30000))
	p.OnAccess(ev(0, 8, 0x30000+7*128))
	// Retire everything.
	for i := 1; i <= 70; i++ {
		p.OnAccess(ev(0, 24, uint64(0x900000+i*4096)))
	}
	// Re-trigger with the exact long event: footprint {0,1} applies (line 1
	// prefetched), not the short event's line 7 (the most recent short
	// footprint for that offset is from region 0x30000).
	reqs := p.OnAccess(ev(0, 8, 0x20000))
	if !contains(reqs, 0x20080) {
		t.Fatalf("long event footprint not replayed: %v", addrs(reqs))
	}
}

func TestBingoResets(t *testing.T) {
	p := NewBingo()
	p.OnAccess(ev(0, 8, 0x10000))
	p.Reset()
	if len(p.active) != 0 || len(p.long) != 0 || len(p.short) != 0 {
		t.Error("Reset left state")
	}
}

func TestCPUPrefetchersImplementInterface(t *testing.T) {
	for _, p := range []Prefetcher{NewDomino(), NewBingo()} {
		if !p.Trained() || WantsOracle(p) {
			t.Errorf("%s: unexpected Trained/WantsOracle", p.Name())
		}
		p.OnCycle(1, nil)
	}
}
