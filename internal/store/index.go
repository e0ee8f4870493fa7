package store

// Index is a shard's secondary-index layer: one posting list of
// ascending row ids per cluster, user and app value that narrows — a
// value some row carries and some row does not — accelerating the
// selective filters the query daemon serves. newShard builds it with
// the shard, so every shard has one and none is written after
// construction. Lists are ascending, so an indexed selection is exactly
// the row set (and order) a full scan would give.
type Index struct {
	cluster postings
	user    postings
	app     postings
}

// postings holds, by dictionary code, the ascending row ids carrying
// the value; nil for a value every row carries, which narrows nothing
// (compile drops such a predicate before narrowest could ask for it).
type postings [][]int32

// newIndex inverts the indexed dictionary columns.
func newIndex(c *Columns) Index {
	return Index{
		cluster: buildPostings(&c.Cluster),
		user:    buildPostings(&c.User),
		app:     buildPostings(&c.App),
	}
}

// buildPostings inverts a dictionary column. The lists are carved,
// sized exactly from the dictionary counts, out of one allocation: a
// shard holds hundreds of users, most with a handful of rows.
func buildPostings(d *DictColumn) postings {
	lists := make(postings, len(d.Values))
	total := 0
	for _, n := range d.counts {
		if n < len(d.Codes) {
			total += n
		}
	}
	rows, at := make([]int32, total), 0
	for code, n := range d.counts {
		if n < len(d.Codes) {
			lists[code] = rows[at : at : at+n]
			at += n
		}
	}
	for i, code := range d.Codes {
		if lists[code] != nil {
			lists[code] = append(lists[code], int32(i))
		}
	}
	return lists
}

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
