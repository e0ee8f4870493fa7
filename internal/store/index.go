package store

// Index is the read-optimized secondary-index layer over a Store: one
// posting list of ascending row ids per cluster, user and app value
// that narrows — a value some row carries and some row does not —
// accelerating the selective filters the query daemon serves. Lists are
// ascending, so an indexed selection is exactly the row set (and order)
// a full scan would give.
type Index struct {
	cluster postings
	user    postings
	app     postings
}

// postings holds, by dictionary code, the ascending row ids carrying
// the value; nil for a value every row carries, which narrows nothing
// (compile drops such a predicate before narrowest could ask for it).
type postings [][]int32

// buildPostings inverts a dictionary column, the lists sized exactly
// from the dictionary counts.
func buildPostings(d *DictColumn) postings {
	lists := make(postings, len(d.Values))
	for code, n := range d.counts {
		if n < len(d.Codes) {
			lists[code] = make([]int32, 0, n)
		}
	}
	for i, code := range d.Codes {
		if lists[code] != nil {
			lists[code] = append(lists[code], int32(i))
		}
	}
	return lists
}

// BuildIndex (re)builds the secondary indexes over the current rows.
// The store must not be mutated (Add, SortByJobID) or queried from
// other goroutines while the build runs; once built, any number of
// readers may query concurrently. Mutation drops the index, so a
// mutate-then-query sequence falls back to scans rather than serving
// stale postings.
func (s *Store) BuildIndex() {
	s.idx = &Index{
		cluster: buildPostings(&s.c.Cluster),
		user:    buildPostings(&s.c.User),
		app:     buildPostings(&s.c.App),
	}
}

// HasIndex reports whether the store currently carries an index.
func (s *Store) HasIndex() bool { return s.idx != nil }

// narrowest returns the shortest posting list among the compiled
// filter's surviving equality predicates on indexed columns, or
// ok=false when none survives (a scan is then the only option).
func (ix *Index) narrowest(cf *compiledFilter) ([]int32, bool) {
	var best []int32
	found := false
	consider := func(p postings, code int64) {
		if code < 0 {
			return
		}
		if list := p[code]; !found || len(list) < len(best) {
			best, found = list, true
		}
	}
	consider(ix.cluster, cf.cluster)
	consider(ix.user, cf.user)
	consider(ix.app, cf.app)
	return best, found
}
