// Package index builds the inverted index over a corpus that encodes the
// distributional vector space model (paper §4.1, Fig. 5 step 1).
//
// Each token has an entry listing the documents it appears in together with
// its augmented term frequency (Eq. 2). The raw tf values are kept — as the
// paper requires — "so they can be used later for thematic projection",
// where only the idf factor (Eq. 3) is recomputed over the thematic basis
// (Algorithm 1, lines 8-10).
//
// In memory the index is a handful of pointer-free columns, not one record
// per (token, document) pair: a token's postings are a run of a document-id
// column and a parallel tf column, and its occurrence positions stay in the
// uvarint-delta form of the file format (persist.go), decoded only by
// PhraseDocs. The columns are laid out in blocks of about blockPostings
// postings, each a run of whole tokens, so a load never has to know the
// total posting count in advance; a token table maps each token (a
// substring of one string) to its run. That is 12 bytes per posting plus
// its encoded positions, and the garbage collector never scans the columns:
// they hold no pointers.
package index

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"sort"

	"thematicep/internal/corpus"
	"thematicep/internal/sparse"
)

// Posting records one (token, document) pair.
type Posting struct {
	Doc int32
	// TF is the augmented term frequency of Eq. 2:
	// 0.5 + 0.5*freq(t,d)/max_freq(d). It does not change under projection.
	TF float64
}

// Index is an immutable inverted index. Build or ReadFrom constructs it; all
// methods are safe for concurrent use afterwards.
type Index struct {
	numDocs int
	rows    map[string]int32 // token -> its span; the keys are substrings of one string
	spans   []span
	blocks  []block
}

// span locates one token's postings: entries [lo, hi) of its block's doc
// and tf columns, and bytes [plo, phi) of the block's encoded positions.
type span struct {
	blk, lo, hi, plo, phi uint32
}

// block is one stretch of the columns. Per posting, pos holds the number of
// occurrences and then the ascending offsets as deltas, all uvarints.
type block struct {
	docs []int32
	tfs  []float64
	pos  []byte
}

// blockPostings bounds the postings of a block (a token with more gets a
// block of its own). A block is staged in buffers allocated once at this
// size and copied out at its exact size, so a load allocates the columns
// once plus one block's staging.
const blockPostings = 8192

// builder lays out an index token by token; Build and ReadFrom both feed
// it. Between open and close the caller appends the token's postings to
// docs and tfs and their encoded positions to pos.
type builder struct {
	names  []byte   // every token's bytes, concatenated
	ends   []uint32 // end offset in names of each span's token
	spans  []span
	blocks []block
	docs   []int32 // the open block
	tfs    []float64
	pos    []byte
}

// newBuilder allocates the staging buffers, once, at block size.
func newBuilder() *builder {
	return &builder{
		docs: make([]int32, 0, blockPostings),
		tfs:  make([]float64, 0, blockPostings),
		pos:  make([]byte, 0, 4*blockPostings),
	}
}

// open starts the span of the token whose bytes were just appended to
// names and which has n postings, first closing the open block if they
// would overflow it.
func (b *builder) open(n uint64) {
	if len(b.docs) > 0 && uint64(len(b.docs))+n > blockPostings {
		b.flush()
	}
	b.ends = append(b.ends, uint32(len(b.names)))
	b.spans = append(b.spans, span{
		blk: uint32(len(b.blocks)),
		lo:  uint32(len(b.docs)),
		plo: uint32(len(b.pos)),
	})
}

// close ends the open span.
func (b *builder) close() {
	sp := &b.spans[len(b.spans)-1]
	sp.hi, sp.phi = uint32(len(b.docs)), uint32(len(b.pos))
}

// flush copies the open block out at its exact size and empties the
// staging buffers for the next one.
func (b *builder) flush() {
	blk := block{
		docs: make([]int32, len(b.docs)),
		tfs:  make([]float64, len(b.tfs)),
		pos:  make([]byte, len(b.pos)),
	}
	copy(blk.docs, b.docs)
	copy(blk.tfs, b.tfs)
	copy(blk.pos, b.pos)
	b.blocks = append(b.blocks, blk)
	b.docs, b.tfs, b.pos = b.docs[:0], b.tfs[:0], b.pos[:0]
}

// finish closes the last block and builds the token table. A token listed
// twice resolves to its last span.
func (b *builder) finish(numDocs int) *Index {
	b.flush()
	names := string(b.names)
	rows := make(map[string]int32, len(b.ends))
	start := uint32(0)
	for r, end := range b.ends {
		rows[names[start:end]] = int32(r)
		start = end
	}
	return &Index{numDocs: numDocs, rows: rows, spans: b.spans, blocks: b.blocks}
}

// appendPositions appends the encoded form of one posting's ascending
// occurrence offsets.
func appendPositions(dst []byte, positions []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(positions)))
	prev := int32(0)
	for _, p := range positions {
		dst = binary.AppendUvarint(dst, uint64(p-prev))
		prev = p
	}
	return dst
}

// positionsLen returns the length of the first posting's encoded positions
// at the start of enc.
func positionsLen(enc []byte) int {
	n, k := binary.Uvarint(enc)
	off := k
	for ; n > 0; n-- {
		_, k = binary.Uvarint(enc[off:])
		off += k
	}
	return off
}

// Build tokenizes nothing itself: corpus documents already carry normalized,
// stop-word-free tokens. It computes per-document maximum frequencies and
// the augmented tf of every posting.
func Build(c *corpus.Corpus) *Index {
	type occurrence struct {
		doc       int32
		tf        float64
		positions []int32
	}
	byToken := make(map[string][]occurrence)
	for _, doc := range c.Docs {
		if len(doc.Tokens) == 0 {
			continue
		}
		positions := make(map[string][]int32, len(doc.Tokens))
		maxFreq := 0
		for i, tok := range doc.Tokens {
			positions[tok] = append(positions[tok], int32(i))
			if len(positions[tok]) > maxFreq {
				maxFreq = len(positions[tok])
			}
		}
		for tok, pos := range positions {
			tf := 0.5 + 0.5*float64(len(pos))/float64(maxFreq)
			byToken[tok] = append(byToken[tok], occurrence{doc: doc.ID, tf: tf, positions: pos})
		}
	}
	b := newBuilder()
	for _, tok := range slices.Sorted(maps.Keys(byToken)) {
		occs := byToken[tok]
		sort.Slice(occs, func(i, j int) bool { return occs[i].doc < occs[j].doc })
		b.names = append(b.names, tok...)
		b.open(uint64(len(occs)))
		for _, o := range occs {
			b.docs = append(b.docs, o.doc)
			b.tfs = append(b.tfs, o.tf)
			b.pos = appendPositions(b.pos, o.positions)
		}
		b.close()
	}
	return b.finish(c.Len())
}

// NumDocs returns |D|, the dimensionality of the full space.
func (ix *Index) NumDocs() int { return ix.numDocs }

// VocabSize returns the number of distinct tokens.
func (ix *Index) VocabSize() int { return len(ix.rows) }

// lookup returns token's span and the block holding it.
func (ix *Index) lookup(token string) (span, *block, bool) {
	r, ok := ix.rows[token]
	if !ok {
		return span{}, nil, false
	}
	sp := ix.spans[r]
	return sp, &ix.blocks[sp.blk], true
}

// Columns returns token's postings as two parallel views into the index:
// the ids of the documents it occurs in, ascending, and the augmented tf
// (Eq. 2) of each. An unknown token yields nil views. The views are shared;
// callers must not modify them.
func (ix *Index) Columns(token string) (docs []int32, tfs []float64) {
	sp, b, ok := ix.lookup(token)
	if !ok {
		return nil, nil
	}
	return b.docs[sp.lo:sp.hi:sp.hi], b.tfs[sp.lo:sp.hi:sp.hi]
}

// DocFreq returns the document frequency of token.
func (ix *Index) DocFreq(token string) int {
	sp, _, _ := ix.lookup(token)
	return int(sp.hi - sp.lo)
}

// Postings returns the postings list of token, sorted by document id, in a
// fresh slice. Columns is the allocation-free view of the same postings.
func (ix *Index) Postings(token string) []Posting {
	docs, tfs := ix.Columns(token)
	if docs == nil {
		return nil
	}
	out := make([]Posting, len(docs))
	for i, d := range docs {
		out[i] = Posting{Doc: d, TF: tfs[i]}
	}
	return out
}

// IDF returns the inverse document frequency of Eq. 3 over the full space:
// log(|D| / df). Tokens appearing nowhere get 0.
func (ix *Index) IDF(token string) float64 {
	df := ix.DocFreq(token)
	if df == 0 || ix.numDocs == 0 {
		return 0
	}
	return math.Log(float64(ix.numDocs) / float64(df))
}

// Vector returns the token's distributional vector in the full space with
// TF/IDF weights (Eq. 4, Fig. 5 step 2). Unknown tokens yield the zero
// vector.
func (ix *Index) Vector(token string) sparse.Vector {
	docs, tfs := ix.Columns(token)
	if len(docs) == 0 {
		return sparse.Vector{}
	}
	idf := ix.IDF(token)
	if idf == 0 {
		// A token in every document carries no distributional signal.
		return sparse.Vector{}
	}
	weights := make([]float64, len(tfs))
	for i, tf := range tfs {
		weights[i] = tf * idf
	}
	return sparse.New(docs, weights)
}

// DocsContaining returns the sorted document ids containing token, as a
// shared view into the index; callers must not modify it.
func (ix *Index) DocsContaining(token string) []int32 {
	docs, _ := ix.Columns(token)
	return docs
}

// Known reports whether the token occurs in the corpus.
func (ix *Index) Known(token string) bool {
	_, ok := ix.rows[token]
	return ok
}

// PhraseDocs returns the sorted ids of documents containing the tokens as a
// consecutive phrase. A one-token phrase degenerates to DocsContaining, and
// shares its view.
// Multi-word theme tags use phrase semantics when selecting their basis: the
// tag "land transport" denotes documents about land transport, not every
// document mentioning "land" or "transport".
func (ix *Index) PhraseDocs(tokens []string) []int32 {
	switch len(tokens) {
	case 0:
		return nil
	case 1:
		return ix.DocsContaining(tokens[0])
	}
	// Walk the rarest token's postings; every other token's cursor follows
	// in document order, so each one's positions are decoded at most once
	// and only for documents the rarest token reaches.
	curs := make([]posCursor, len(tokens))
	rarest := 0
	for i, tok := range tokens {
		sp, b, ok := ix.lookup(tok)
		if !ok || sp.lo == sp.hi {
			return nil
		}
		curs[i] = posCursor{docs: b.docs[sp.lo:sp.hi], pos: b.pos[sp.plo:sp.phi]}
		if len(curs[i].docs) < len(curs[rarest].docs) {
			rarest = i
		}
	}
	pos := make([][]int32, len(tokens))
	var out []int32
	for a := &curs[rarest]; a.i < len(a.docs); a.next() {
		if doc := a.docs[a.i]; phraseInDoc(curs, pos, rarest, doc) {
			out = append(out, doc)
		}
	}
	return out
}

// phraseInDoc reports whether the tokens of curs occur consecutively in doc,
// where curs[anchorIdx] stands at doc's posting. pos is scratch for the
// decoded positions, one list per token.
func phraseInDoc(curs []posCursor, pos [][]int32, anchorIdx int, doc int32) bool {
	for i := range curs {
		if i != anchorIdx && !curs[i].seek(doc) {
			return false
		}
	}
	for i := range curs {
		pos[i] = curs[i].positions(pos[i][:0])
	}
	for _, start := range pos[anchorIdx] {
		base := start - int32(anchorIdx)
		if base < 0 {
			continue
		}
		ok := true
		for i := range curs {
			if i == anchorIdx {
				continue
			}
			want := base + int32(i)
			k := sort.Search(len(pos[i]), func(k int) bool { return pos[i][k] >= want })
			if k >= len(pos[i]) || pos[i][k] != want {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// posCursor walks one token's postings with their encoded positions; pos
// always starts at the positions of posting i.
type posCursor struct {
	docs []int32
	pos  []byte
	i    int
}

// next steps past the current posting.
func (c *posCursor) next() {
	c.pos = c.pos[positionsLen(c.pos):]
	c.i++
}

// seek steps forward to the first posting at or after doc and reports
// whether it is doc's.
func (c *posCursor) seek(doc int32) bool {
	for c.i < len(c.docs) && c.docs[c.i] < doc {
		c.next()
	}
	return c.i < len(c.docs) && c.docs[c.i] == doc
}

// positions appends the current posting's occurrence offsets to dst.
func (c *posCursor) positions(dst []int32) []int32 {
	n, off := binary.Uvarint(c.pos)
	at := int32(0)
	for ; n > 0; n-- {
		d, k := binary.Uvarint(c.pos[off:])
		off += k
		at += int32(d)
		dst = append(dst, at)
	}
	return dst
}
