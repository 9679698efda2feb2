package records

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// diffCities share tokens ("san", "city", "st") so phrase matching has
// near misses to get wrong.
var diffCities = []string{
	"Salt Lake City,UT", "Denver,CO", "Sacramento,CA", "Palo Alto,CA",
	"Gainesville,FL", "Ocala,FL", "Houston,TX", "Dallas,TX",
	"San Antonio,TX", "San Diego,CA", "San Francisco,CA", "Los Angeles,CA",
	"Kansas City,MO", "St. Louis,MO", "New York,NY", "York,PA",
}

// randomTruth draws n distinct conduits with 1-5 tenants each.
func randomTruth(rng *rand.Rand, n int) GroundTruth {
	truth := GroundTruth{Tenants: make(map[ConduitRef][]string)}
	for len(truth.Tenants) < n {
		a, b := diffCities[rng.Intn(len(diffCities))], diffCities[rng.Intn(len(diffCities))]
		if a == b {
			continue
		}
		perm := rng.Perm(len(testISPs))[:1+rng.Intn(5)]
		var tenants []string
		for _, i := range perm {
			tenants = append(tenants, testISPs[i])
		}
		truth.Tenants[NewConduitRef(a, b)] = tenants
	}
	return truth
}

// randomQuery mixes corpus terms (duplicates included), terms no
// document uses, and the case and punctuation Tokenize folds away.
func randomQuery(rng *rand.Rand, vocab []string) string {
	var words []string
	for n := 1 + rng.Intn(8); len(words) < n; {
		switch r := rng.Intn(10); {
		case r == 0:
			words = append(words, "zzqx")
		case r == 1 && len(words) > 0:
			words = append(words, words[rng.Intn(len(words))]) // duplicate
		case r == 2:
			words = append(words, strings.ToUpper(vocab[rng.Intn(len(vocab))])+",")
		default:
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
	}
	return strings.Join(words, " ")
}

func vocabulary(c *Corpus) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range c.Docs {
		for _, t := range Tokenize(d.Title + " " + d.Body) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

var diffNoise = []Options{
	{Coverage: 1, TenantRecall: 1},
	{}, // the package defaults
	{Coverage: 0.5, TenantRecall: 0.6, FalseTenantRate: 0.3},
}

// TestSearchMatchesReference diffs Search against the map-and-sort
// oracle over generated corpora: every hit's doc id and score must be
// identical, down to the float bits, for k from 1 past the hit count.
func TestSearchMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		for ni, noise := range diffNoise {
			rng := rand.New(rand.NewSource(seed*100 + int64(ni)))
			noise.Seed = seed
			c := Generate(randomTruth(rng, 30), testISPs, noise)
			idx, ref := BuildIndex(c), buildReferenceIndex(c)
			vocab := vocabulary(c)
			queries := []string{"", "zzqx", "fiber fiber FIBER", "at&t", "san antonio to san diego fiber iru at&t"}
			for i := 0; i < 60; i++ {
				queries = append(queries, randomQuery(rng, vocab))
			}
			for _, q := range queries {
				for _, k := range []int{-1, 0, 1, 2, 8, len(c.Docs) + 5} {
					got, want := idx.Search(q, k), ref.Search(q, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d noise %d: Search(%q, %d)\n got %v\nwant %v", seed, ni, q, k, got, want)
					}
				}
			}
		}
	}
}

// TestInferenceMatchesReference diffs Validate over every conduit and
// ISP, and TenantsFor over every conduit, against the oracle.
func TestInferenceMatchesReference(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		for ni, noise := range diffNoise {
			noise.Seed = seed
			c := Generate(randomTruth(rand.New(rand.NewSource(seed)), 30), testISPs, noise)
			idx, ref := BuildIndex(c), buildReferenceIndex(c)
			inf := NewInference(idx)
			for _, cr := range c.Refs() {
				for _, isp := range testISPs {
					for _, k := range []int{1, 8} {
						gd, gok := inf.Validate(cr, isp, k)
						wd, wok := ref.Validate(cr, isp, k)
						if gd != wd || gok != wok {
							t.Fatalf("seed %d noise %d: Validate(%v, %q, %d) = %d,%v want %d,%v",
								seed, ni, cr, isp, k, gd, gok, wd, wok)
						}
					}
				}
				got, want := inf.TenantsFor(cr, testISPs, 8), ref.TenantsFor(cr, testISPs, 8)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d noise %d: TenantsFor(%v)\n got %v\nwant %v", seed, ni, cr, got, want)
				}
			}
		}
	}
}

// TestSearchExactTies: documents with identical text score identical
// bits, so the order among them is the doc-id tie-break alone, and the
// bounded top-k must keep the lowest ids.
func TestSearchExactTies(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 12; i++ {
		body := "fiber conduit between Denver and Salt Lake City"
		if i%3 == 1 {
			body = "fiber conduit between Denver and Dallas, Level 3"
		}
		c.Docs = append(c.Docs, Document{ID: i, Title: "notice", Body: body})
	}
	idx, ref := BuildIndex(c), buildReferenceIndex(c)
	for _, k := range []int{1, 3, 5, 12, 20} {
		got, want := idx.Search("denver fiber", k), ref.Search("denver fiber", k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v want %v", k, got, want)
		}
	}
	got := idx.Search("denver salt lake", 3)
	if len(got) != 3 || got[0].DocID != 0 || got[1].DocID != 2 || got[2].DocID != 3 {
		t.Fatalf("tie-break by doc id: got %v", got)
	}
	if got[0].Score != got[2].Score {
		t.Fatalf("identical documents scored %v and %v", got[0].Score, got[2].Score)
	}
}

var fuzzCorpus = sync.OnceValue(func() *Corpus {
	return Generate(randomTruth(rand.New(rand.NewSource(9)), 24), testISPs,
		Options{Coverage: 0.8, TenantRecall: 0.8, FalseTenantRate: 0.2, Seed: 9})
})

var fuzzIndexes = sync.OnceValues(func() (*Index, *referenceIndex) {
	return BuildIndex(fuzzCorpus()), buildReferenceIndex(fuzzCorpus())
})

// FuzzSearchMatchesReference diffs Search against the oracle for
// arbitrary query text and k.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add("denver to salt lake city fiber iru level 3", 8)
	f.Add("fiber fiber FIBER, at&t", 1)
	f.Add("zzqx \xff 日本語", 1000)
	f.Add("", 0)
	f.Fuzz(func(t *testing.T, query string, k int) {
		k %= 64 // keep k near the hit counts; negative k stays negative
		idx, ref := fuzzIndexes()
		got, want := idx.Search(query, k), ref.Search(query, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%q, %d)\n got %v\nwant %v", query, k, got, want)
		}
	})
}

// TestSearchAllocs pins the allocations of one search at five: token
// buffer and term ids for the query, then scores, touched list and top
// k, whatever the hit count.
func TestSearchAllocs(t *testing.T) {
	idx, _ := fuzzIndexes()
	for _, q := range []struct {
		query string
		k     int
	}{
		{"denver to salt lake city fiber iru level 3", 8},
		{"fiber", len(fuzzCorpus().Docs)}, // every document, all kept
	} {
		if n := len(idx.Search(q.query, q.k)); n < 8 {
			t.Fatalf("%q hit %d docs, want at least 8", q.query, n)
		}
		if got := testing.AllocsPerRun(50, func() { idx.Search(q.query, q.k) }); got != 5 {
			t.Errorf("Search(%q, %d): %v allocs, want 5", q.query, q.k, got)
		}
	}
}
