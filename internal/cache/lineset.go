package cache

// LineSet is a set of line numbers (address >> log2 line size) stored as a
// paged bitmap: one bit per line, in pages of pageLines lines. A LineTable
// maps each page number to the page's slot in one word slab, so Has and Put
// cost one probe of a table holding a single entry per page plus a bit
// operation, and the set's size follows the number of pages touched rather
// than the number of lines. Keys cover the whole uint64 range. Clear zeroes
// the used pages and keeps the slab and the page table, so a set that has
// reached its working size allocates nothing more. The zero value is an
// empty set.
type LineSet struct {
	pages LineTable[int32] // page number -> slot in words
	words []uint64         // pageWords words per used page, in slot order
}

const (
	pageBits  = 12 // log2 lines per page
	pageLines = 1 << pageBits
	pageWords = pageLines / 64
)

// Has reports whether line is in the set.
func (s *LineSet) Has(line uint64) bool {
	slot, ok := s.pages.Get(line >> pageBits)
	if !ok {
		return false
	}
	return s.words[wordOf(slot, line)]&(1<<(line&63)) != 0
}

// Put adds line to the set.
func (s *LineSet) Put(line uint64) {
	page := line >> pageBits
	slot, ok := s.pages.Get(page)
	if !ok {
		slot = int32(len(s.words) / pageWords)
		if n := len(s.words) + pageWords; n <= cap(s.words) {
			s.words = s.words[:n] // Clear zeroed the retained pages
		} else {
			s.words = append(s.words, make([]uint64, pageWords)...)
		}
		s.pages.Put(page, slot)
	}
	s.words[wordOf(slot, line)] |= 1 << (line & 63)
}

// wordOf returns the index in words of line's bit word, given its page slot.
func wordOf(slot int32, line uint64) int {
	return int(slot)*pageWords + int(line>>6&(pageWords-1))
}

// Clear removes every line, keeping the page storage.
func (s *LineSet) Clear() {
	clear(s.words)
	s.words = s.words[:0]
	s.pages.Clear()
}
