package records

import (
	"math"
	"sort"
	"strings"
)

// referenceIndex is the original map-and-sort search engine, kept as
// the oracle the interned, bounded top-k Index is diffed against: it
// tokenizes to strings, scores every matching document into a map and
// fully sorts the matches.
type referenceIndex struct {
	corpus    *Corpus
	postings  map[string][]posting
	docLen    []float64
	docTokens [][]string
}

func buildReferenceIndex(c *Corpus) *referenceIndex {
	ref := &referenceIndex{
		corpus:    c,
		postings:  make(map[string][]posting),
		docLen:    make([]float64, len(c.Docs)),
		docTokens: make([][]string, len(c.Docs)),
	}
	for i, doc := range c.Docs {
		counts := make(map[string]int)
		toks := Tokenize(doc.Title + " " + doc.Body)
		for _, t := range toks {
			counts[t]++
		}
		ref.docLen[i] = float64(len(toks))
		ref.docTokens[i] = toks
		for t, n := range counts {
			ref.postings[t] = append(ref.postings[t], posting{doc: int32(i), tf: float64(n)})
		}
	}
	return ref
}

func (ref *referenceIndex) Search(query string, k int) []Result {
	if k <= 0 {
		return nil
	}
	nDocs := float64(len(ref.corpus.Docs))
	scores := make(map[int32]float64)
	seen := make(map[string]bool)
	for _, t := range Tokenize(query) {
		if seen[t] {
			continue
		}
		seen[t] = true
		ps := ref.postings[t]
		if len(ps) == 0 {
			continue
		}
		idf := math.Log(1 + nDocs/float64(len(ps)))
		for _, p := range ps {
			scores[p.doc] += idf * p.tf / math.Sqrt(ref.docLen[p.doc])
		}
	}
	out := make([]Result, 0, len(scores))
	for doc, s := range scores {
		out = append(out, Result{DocID: int(doc), Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func referenceContainsSeq(haystack, needle []string) bool {
	if len(needle) == 0 {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, t := range needle {
			if haystack[i+j] != t {
				continue outer
			}
		}
		return true
	}
	return false
}

func (ref *referenceIndex) mentions(doc int, phrase string) bool {
	return referenceContainsSeq(ref.docTokens[doc], Tokenize(phrase))
}

// Validate is the original Inference.Validate over the reference index.
func (ref *referenceIndex) Validate(c ConduitRef, isp string, topK int) (int, bool) {
	a, b := cityName(c.A), cityName(c.B)
	for _, h := range ref.Search(a+" to "+b+" fiber iru "+strings.ToLower(isp), topK) {
		if ref.mentions(h.DocID, a) && ref.mentions(h.DocID, b) && ref.mentions(h.DocID, isp) {
			return h.DocID, true
		}
	}
	return 0, false
}

// TenantsFor is the original Inference.TenantsFor over the reference
// index.
func (ref *referenceIndex) TenantsFor(c ConduitRef, candidates []string, topK int) []Evidence {
	a, b := cityName(c.A), cityName(c.B)
	found := make(map[string]int)
	for _, h := range ref.Search(a+" to "+b+" fiber conduit right of way iru", topK) {
		if !ref.mentions(h.DocID, a) || !ref.mentions(h.DocID, b) {
			continue
		}
		for _, isp := range candidates {
			if _, ok := found[isp]; ok {
				continue
			}
			if ref.mentions(h.DocID, isp) {
				found[isp] = h.DocID
			}
		}
	}
	out := make([]Evidence, 0, len(found))
	for isp, doc := range found {
		out = append(out, Evidence{ISP: isp, DocID: doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ISP < out[j].ISP })
	return out
}
