package records

import (
	"math"
	"sort"
	"unicode"
	"unicode/utf8"
)

// index.go implements the search side of the paper's methodology: the
// authors drove "a systematic search for government-related public
// filings" with queries like "los angeles to san francisco fiber iru
// at&t sprint". We index the corpus with a TF-IDF-weighted inverted
// index and score queries by accumulated term weight.

// Tokenize lowercases s and splits it into letter/digit runs.
// Punctuation (including the '&' in AT&T) separates tokens, which is
// what a person typing search terms effectively does too.
func Tokenize(s string) []string {
	var tokens []string
	scanTokens(s, func(tok []byte) { tokens = append(tokens, string(tok)) })
	return tokens
}

// scanTokens calls emit with each token of s, as Tokenize splits it.
// The slice emit receives is reused for the next token.
func scanTokens(s string, emit func(tok []byte)) {
	buf := make([]byte, 0, 32)
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		} else if len(buf) > 0 {
			emit(buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		emit(buf)
	}
}

// noTerm is the id of a query token absent from the corpus: it has no
// postings and matches no document token.
const noTerm int32 = -1

type posting struct {
	doc int32
	tf  float64
}

// Index is an inverted index over a Corpus. Terms are interned to
// dense ids at build time; postings and the per-document token
// sequences (read by mention extraction) share those ids. An Index is
// immutable once built and safe for concurrent use.
type Index struct {
	corpus   *Corpus
	termIDs  map[string]int32
	postings [][]posting // by term id, ascending doc id
	docNorm  []float64   // sqrt of each document's token count
	// docTokens is each document's title and body as a term-id
	// sequence.
	docTokens [][]int32
}

// BuildIndex tokenizes every document's title and body once, interns
// the terms and builds the postings.
func BuildIndex(c *Corpus) *Index {
	idx := &Index{
		corpus:    c,
		termIDs:   make(map[string]int32),
		docNorm:   make([]float64, len(c.Docs)),
		docTokens: make([][]int32, len(c.Docs)),
	}
	var counts []int32 // by term id; reset after each document
	var distinct []int32
	for i, doc := range c.Docs {
		var ids []int32
		scanTokens(doc.Title+" "+doc.Body, func(tok []byte) {
			id, ok := idx.termIDs[string(tok)]
			if !ok {
				id = int32(len(idx.postings))
				idx.termIDs[string(tok)] = id
				idx.postings = append(idx.postings, nil)
				counts = append(counts, 0)
			}
			ids = append(ids, id)
			if counts[id] == 0 {
				distinct = append(distinct, id)
			}
			counts[id]++
		})
		for _, id := range distinct {
			idx.postings[id] = append(idx.postings[id], posting{doc: int32(i), tf: float64(counts[id])})
			counts[id] = 0
		}
		distinct = distinct[:0]
		idx.docTokens[i] = ids
		idx.docNorm[i] = math.Sqrt(float64(len(ids)))
	}
	return idx
}

// terms tokenizes s into term ids, noTerm for tokens the corpus never
// uses.
func (idx *Index) terms(s string) []int32 {
	ids := make([]int32, 0, (len(s)+1)/2) // tokens are separated
	scanTokens(s, func(tok []byte) {
		id, ok := idx.termIDs[string(tok)]
		if !ok {
			id = noTerm
		}
		ids = append(ids, id)
	})
	return ids
}

// Result is one search hit.
type Result struct {
	DocID int
	Score float64
}

// before is the ranking order: score descending, then document id
// ascending. It is total over distinct documents, so the top k are
// unique.
func before(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// Search scores documents against the query by TF-IDF sum and returns
// the top k hits, best first. Ties break by document id for
// determinism.
//
// Each document's score is summed in query-term order, each distinct
// term once, so the float sums do not depend on how the scores are
// stored. They accumulate in a dense per-document slice; the documents
// touched are then inserted into a sorted buffer of the best k so far.
func (idx *Index) Search(query string, k int) []Result {
	if k <= 0 {
		return nil
	}
	terms := idx.terms(query)
	nDocs := float64(len(idx.corpus.Docs))
	scores := make([]float64, len(idx.corpus.Docs))
	touched := make([]int32, 0, len(idx.corpus.Docs))
	for i, t := range terms {
		if t == noTerm || dupBefore(terms[:i], t) {
			continue
		}
		ps := idx.postings[t]
		idf := math.Log(1 + nDocs/float64(len(ps)))
		for _, p := range ps {
			if scores[p.doc] == 0 { // every term weight is positive
				touched = append(touched, p.doc)
			}
			// Length-normalized TF.
			scores[p.doc] += idf * p.tf / idx.docNorm[p.doc]
		}
	}
	if k > len(touched) {
		k = len(touched)
	}
	top := make([]Result, 0, k) // best first
	for _, d := range touched {
		r := Result{DocID: int(d), Score: scores[d]}
		if len(top) == k && !before(r, top[k-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return before(r, top[i]) })
		if len(top) < k {
			top = append(top, Result{})
		}
		copy(top[i+1:], top[i:])
		top[i] = r
	}
	return top
}

// dupBefore reports whether t already occurs in prev.
func dupBefore(prev []int32, t int32) bool {
	for _, p := range prev {
		if p == t {
			return true
		}
	}
	return false
}

// Doc returns the indexed document by id.
func (idx *Index) Doc(id int) Document { return idx.corpus.Docs[id] }
