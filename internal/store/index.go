package store

// Index is the read-optimized secondary-index layer over a Store: one
// posting list of ascending row ids per distinct cluster, user and app
// value, accelerating the selective filters the query daemon serves.
// Lists are ascending, so an indexed selection is exactly the row set
// (and order) a full scan would give.
type Index struct {
	cluster postings
	user    postings
	app     postings
}

// postings maps a column value to the ascending row ids holding it.
type postings map[string][]int32

// buildPostings inverts a dictionary column: the per-code row lists are
// sized exactly from the dictionary counts, then keyed by value.
func buildPostings(d *DictColumn) postings {
	lists := make([][]int32, len(d.Values))
	for code, n := range d.counts {
		lists[code] = make([]int32, 0, n)
	}
	for i, code := range d.Codes {
		lists[code] = append(lists[code], int32(i))
	}
	p := make(postings, len(d.Values))
	for code, v := range d.Values {
		p[v] = lists[code]
	}
	return p
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

// narrowest returns the shortest posting list among the filter's
// equality predicates on indexed columns, or ok=false when the filter
// constrains none of them (a scan is then the only option).
func (ix *Index) narrowest(f Filter) ([]int32, bool) {
	var best []int32
	found := false
	consider := func(p postings, val string) {
		if val == "" {
			return
		}
		list := p[val] // nil for unknown values: empty result
		if !found || len(list) < len(best) {
			best, found = list, true
		}
	}
	consider(ix.cluster, f.Cluster)
	consider(ix.user, f.User)
	consider(ix.app, f.App)
	return best, found
}
