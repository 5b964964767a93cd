package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"thematicep/internal/corpus"
	"thematicep/internal/text"
	"thematicep/internal/thesaurus"
	"thematicep/internal/vocab"
)

// refPosting is the record-per-posting layout the columns replaced: every
// posting carried its own decoded positions.
type refPosting struct {
	Doc       int32
	TF        float64
	Positions []int32
}

// refIndex is the map-of-records index the columns replaced, kept as their
// reference: readRef decodes a TEPIDX1 stream into it and its methods are
// the accessors as they were written for that layout.
type refIndex struct {
	numDocs  int
	postings map[string][]refPosting
}

func readRef(r io.Reader) (*refIndex, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, indexMagic) {
		return nil, errors.New("ref: magic")
	}
	numDocs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	vocab, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	ix := &refIndex{numDocs: int(numDocs), postings: make(map[string][]refPosting)}
	for t := uint64(0); t < vocab; t++ {
		tokLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		tok := make([]byte, tokLen)
		if _, err := io.ReadFull(br, tok); err != nil {
			return nil, err
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		var ps []refPosting
		doc := int32(0)
		for i := uint64(0); i < n; i++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			doc += int32(d)
			var tf [8]byte
			if _, err := io.ReadFull(br, tf[:]); err != nil {
				return nil, err
			}
			nPos, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			var positions []int32
			pos := int32(0)
			for j := uint64(0); j < nPos; j++ {
				d, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				pos += int32(d)
				positions = append(positions, pos)
			}
			ps = append(ps, refPosting{Doc: doc, TF: math.Float64frombits(binary.LittleEndian.Uint64(tf[:])), Positions: positions})
		}
		ix.postings[string(tok)] = ps
	}
	return ix, nil
}

func (ix *refIndex) idf(token string) float64 {
	df := len(ix.postings[token])
	if df == 0 || ix.numDocs == 0 {
		return 0
	}
	return math.Log(float64(ix.numDocs) / float64(df))
}

// weights is Vector's weight per posting; nil when Vector is zero.
func (ix *refIndex) weights(token string) []float64 {
	ps := ix.postings[token]
	idf := ix.idf(token)
	if len(ps) == 0 || idf == 0 {
		return nil
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.TF * idf
	}
	return out
}

func (ix *refIndex) docsContaining(token string) []int32 {
	var out []int32
	for _, p := range ix.postings[token] {
		out = append(out, p.Doc)
	}
	return out
}

func (ix *refIndex) phraseDocs(tokens []string) []int32 {
	if len(tokens) == 1 {
		return ix.docsContaining(tokens[0])
	}
	rarest := 0
	for i, tok := range tokens {
		if len(ix.postings[tok]) == 0 {
			return nil
		}
		if len(ix.postings[tok]) < len(ix.postings[tokens[rarest]]) {
			rarest = i
		}
	}
	var out []int32
	for _, p := range ix.postings[tokens[rarest]] {
		if ix.phraseInDoc(tokens, rarest, p) {
			out = append(out, p.Doc)
		}
	}
	return out
}

func (ix *refIndex) phraseInDoc(tokens []string, anchorIdx int, p refPosting) bool {
	pos := make([][]int32, len(tokens))
	for i, tok := range tokens {
		if i == anchorIdx {
			pos[i] = p.Positions
			continue
		}
		ps := ix.postings[tok]
		j := sort.Search(len(ps), func(j int) bool { return ps[j].Doc >= p.Doc })
		if j >= len(ps) || ps[j].Doc != p.Doc {
			return false
		}
		pos[i] = ps[j].Positions
	}
	for _, start := range pos[anchorIdx] {
		base := start - int32(anchorIdx)
		if base < 0 {
			continue
		}
		ok := true
		for i := range tokens {
			want := base + int32(i)
			if i != anchorIdx && !slices.Contains(pos[i], want) {
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

var (
	defaultIndexOnce sync.Once
	defaultIndex     *Index
	defaultIndexFile []byte
)

// defaultIndexBytes builds the index of the default corpus, the one every
// daemon serves, once per test binary and returns it with its file.
func defaultIndexBytes(t testing.TB) (*Index, []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	defaultIndexOnce.Do(func() {
		defaultIndex = Build(corpus.GenerateDefault())
		var buf bytes.Buffer
		if _, err := defaultIndex.WriteTo(&buf); err != nil {
			panic(err)
		}
		defaultIndexFile = buf.Bytes()
	})
	return defaultIndex, defaultIndexFile
}

// TestIndexMatchesReference checks the columns against the record layout
// over the default corpus, bit for bit: every accessor for every token,
// and PhraseDocs for every multi-word thesaurus term. Both the built and
// the loaded index are checked, and the loaded one writes the file back
// byte for byte.
func TestIndexMatchesReference(t *testing.T) {
	built, file := defaultIndexBytes(t)
	ref, err := readRef(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFrom(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file) {
		t.Error("WriteTo(ReadFrom(f)) differs from f")
	}

	var phrases [][]string
	th := thesaurus.New(vocab.AllDomains())
	for _, d := range vocab.AllDomains() {
		terms := th.TopTerms(d.Name)
		for _, c := range d.Concepts {
			terms = append(append(terms, c.Terms()...), c.Related...)
		}
		for _, term := range terms {
			if toks := text.Tokenize(term); len(toks) > 1 {
				phrases = append(phrases, toks)
			}
		}
	}
	if len(phrases) < 50 {
		t.Fatalf("only %d multi-word terms", len(phrases))
	}

	for name, ix := range map[string]*Index{"built": built, "loaded": loaded} {
		if ix.NumDocs() != ref.numDocs || ix.VocabSize() != len(ref.postings) {
			t.Fatalf("%s: %d docs, %d tokens; want %d, %d", name, ix.NumDocs(), ix.VocabSize(), ref.numDocs, len(ref.postings))
		}
		for tok, ps := range ref.postings {
			if !ix.Known(tok) || ix.DocFreq(tok) != len(ps) {
				t.Fatalf("%s %q: known %v, df %d; want df %d", name, tok, ix.Known(tok), ix.DocFreq(tok), len(ps))
			}
			if got, want := ix.IDF(tok), ref.idf(tok); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %q: IDF %v, want %v", name, tok, got, want)
			}
			got := ix.Postings(tok)
			for i, p := range ps {
				if got[i].Doc != p.Doc || math.Float64bits(got[i].TF) != math.Float64bits(p.TF) {
					t.Fatalf("%s %q: posting %d = %+v, want {%d %v}", name, tok, i, got[i], p.Doc, p.TF)
				}
			}
			docs := ref.docsContaining(tok)
			if !slices.Equal(ix.DocsContaining(tok), docs) {
				t.Fatalf("%s %q: DocsContaining %v, want %v", name, tok, ix.DocsContaining(tok), docs)
			}
			v, w := ix.Vector(tok), ref.weights(tok)
			if w == nil {
				if !v.IsZero() {
					t.Fatalf("%s %q: Vector has %d components, want none", name, tok, v.NNZ())
				}
				continue
			}
			if !slices.Equal(v.Dims(), docs) {
				t.Fatalf("%s %q: Vector dims %v, want %v", name, tok, v.Dims(), docs)
			}
			for i, d := range docs {
				if math.Float64bits(v.Weight(d)) != math.Float64bits(w[i]) {
					t.Fatalf("%s %q: weight of %d = %v, want %v", name, tok, d, v.Weight(d), w[i])
				}
			}
		}
		for _, toks := range phrases {
			if got, want := ix.PhraseDocs(toks), ref.phraseDocs(toks); !slices.Equal(got, want) {
				t.Fatalf("%s: PhraseDocs(%q) = %v, want %v", name, strings.Join(toks, " "), got, want)
			}
		}
	}
}

// TestReadFromAllocations bounds what loading the default index costs: a
// fixed number of allocations beyond one per token, and at most 24 bytes
// per posting — the columns take 12 plus the encoded positions.
func TestReadFromAllocations(t *testing.T) {
	ix, file := defaultIndexBytes(t)
	postings := 0
	for tok := range ix.rows {
		postings += ix.DocFreq(tok)
	}
	load := func() {
		if _, err := ReadFrom(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	}
	load()
	if allocs, limit := testing.AllocsPerRun(5, load), float64(ix.VocabSize()+64); allocs > limit {
		t.Errorf("ReadFrom makes %.0f allocations, want at most %.0f", allocs, limit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	load()
	runtime.ReadMemStats(&after)
	if perPosting := float64(after.TotalAlloc-before.TotalAlloc) / float64(postings); perPosting > 24 {
		t.Errorf("ReadFrom allocates %.1f B per posting (%d postings), want at most 24", perPosting, postings)
	}
}

// FuzzReadFrom: any stream either fails with ErrBadIndexFile or loads into
// an index that WriteTo writes back to one with the same postings.
func FuzzReadFrom(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Build(tinyCorpus()).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, n := range []int{0, 8, 9, 12, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	// The first tf's top byte, flipped: a negative tf.
	flipped := slices.Clone(good)
	flipped[len(indexMagic)+2+1+1+1+1+7] ^= 0x80
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadIndexFile) {
				t.Fatalf("error %v does not wrap ErrBadIndexFile", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := ix.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(&out)
		if err != nil {
			t.Fatalf("reloading WriteTo's output: %v", err)
		}
		if back.NumDocs() != ix.NumDocs() || back.VocabSize() != ix.VocabSize() {
			t.Fatalf("reloaded %d docs, %d tokens; want %d, %d", back.NumDocs(), back.VocabSize(), ix.NumDocs(), ix.VocabSize())
		}
		for tok := range ix.rows {
			if !slices.Equal(back.Postings(tok), ix.Postings(tok)) {
				t.Fatalf("%q: reloaded postings %v, want %v", tok, back.Postings(tok), ix.Postings(tok))
			}
		}
	})
}
