package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
)

// Index persistence addresses the paper's "building an efficient indexing
// for thematic projection" future-work item (§7): the inverted index is the
// expensive artifact (Wikipedia-scale in the paper), so brokers save it
// once and load it at startup instead of re-indexing the corpus.
//
// The format is a compact little-endian binary stream:
//
//	magic "TEPIDX1\n" | numDocs uvarint | vocab uvarint |
//	  per token: len uvarint, bytes, postings uvarint,
//	    per posting: docDelta uvarint, tf float64bits,
//	      positions uvarint, posDelta uvarint...
//
// Doc ids and positions are delta-encoded (they are sorted ascending).
//
// The in-memory form (index.go) differs: doc ids and tfs are loaded into
// columns, while each posting's positions — count and deltas — keep their
// on-disk bytes, so WriteTo copies them through and only PhraseDocs turns
// them into offsets.

var indexMagic = []byte("TEPIDX1\n")

// ErrBadIndexFile reports a corrupt or incompatible index stream.
var ErrBadIndexFile = errors.New("index: bad index file")

// WriteTo serializes the index. It returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.Write(indexMagic); err != nil {
		return cw.n, err
	}
	writeUvarint(cw, uint64(ix.numDocs))
	writeUvarint(cw, uint64(len(ix.rows)))

	// Deterministic output: tokens in sorted order.
	for _, tok := range slices.Sorted(maps.Keys(ix.rows)) {
		writeUvarint(cw, uint64(len(tok)))
		if _, err := io.WriteString(cw, tok); err != nil {
			return cw.n, err
		}
		sp, b, _ := ix.lookup(tok)
		writeUvarint(cw, uint64(sp.hi-sp.lo))
		// The positions are held in their on-disk form: copy each
		// posting's run through.
		pos := b.pos[sp.plo:sp.phi]
		prevDoc := int32(0)
		for k := sp.lo; k < sp.hi; k++ {
			doc := b.docs[k]
			writeUvarint(cw, uint64(doc-prevDoc))
			prevDoc = doc
			var tfBits [8]byte
			binary.LittleEndian.PutUint64(tfBits[:], math.Float64bits(b.tfs[k]))
			if _, err := cw.Write(tfBits[:]); err != nil {
				return cw.n, err
			}
			n := positionsLen(pos)
			if _, err := cw.Write(pos[:n]); err != nil {
				return cw.n, err
			}
			pos = pos[n:]
		}
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadFrom deserializes an index written by WriteTo. No count the stream
// claims (tokens, postings, positions) sizes an allocation: storage grows
// only with what is actually read, so a corrupt header cannot make a load
// allocate much more than its input.
func ReadFrom(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var word [8]byte // the magic's bytes, then each tf's
	if _, err := io.ReadFull(br, word[:len(indexMagic)]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	if string(word[:len(indexMagic)]) != string(indexMagic) {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadIndexFile)
	}
	numDocs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: numDocs: %v", ErrBadIndexFile, err)
	}
	vocab, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: vocab: %v", ErrBadIndexFile, err)
	}
	const maxVocab = 1 << 26
	if vocab > maxVocab || numDocs > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible sizes", ErrBadIndexFile)
	}

	b := newBuilder()
	for t := uint64(0); t < vocab; t++ {
		tokLen, err := binary.ReadUvarint(br)
		if err != nil || tokLen > 1<<16 {
			return nil, fmt.Errorf("%w: token length", ErrBadIndexFile)
		}
		at := len(b.names)
		b.names = slices.Grow(b.names, int(tokLen))[:at+int(tokLen)]
		if _, err := io.ReadFull(br, b.names[at:]); err != nil {
			return nil, fmt.Errorf("%w: token bytes: %v", ErrBadIndexFile, err)
		}
		nPostings, err := binary.ReadUvarint(br)
		if err != nil || nPostings > numDocs {
			return nil, fmt.Errorf("%w: postings count for %q", ErrBadIndexFile, b.names[at:])
		}
		b.open(nPostings)
		doc := int32(0)
		for i := uint64(0); i < nPostings; i++ {
			docDelta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: doc delta: %v", ErrBadIndexFile, err)
			}
			doc += int32(docDelta)
			if doc < 0 || uint64(doc) >= numDocs {
				return nil, fmt.Errorf("%w: doc id out of range", ErrBadIndexFile)
			}
			if _, err := io.ReadFull(br, word[:]); err != nil {
				return nil, fmt.Errorf("%w: tf: %v", ErrBadIndexFile, err)
			}
			tf := math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
			if tf < 0 || tf > 1 || math.IsNaN(tf) {
				return nil, fmt.Errorf("%w: tf out of range", ErrBadIndexFile)
			}
			nPos, err := binary.ReadUvarint(br)
			if err != nil || nPos > 1<<20 {
				return nil, fmt.Errorf("%w: positions count", ErrBadIndexFile)
			}
			// Re-encoded rather than copied, so an over-long uvarint in
			// the stream is stored, and written back, in canonical form.
			b.pos = binary.AppendUvarint(b.pos, nPos)
			for j := uint64(0); j < nPos; j++ {
				posDelta, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("%w: position delta: %v", ErrBadIndexFile, err)
				}
				b.pos = binary.AppendUvarint(b.pos, posDelta)
			}
			b.docs = append(b.docs, doc)
			b.tfs = append(b.tfs, tf)
		}
		b.close()
	}
	return b.finish(int(numDocs)), nil
}

// countingWriter tracks bytes written and sticks on the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

func writeUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // countingWriter latches the error
}
