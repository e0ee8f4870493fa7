package serve

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"supremm/internal/core"
	"supremm/internal/store"
)

// Params is the decoded query-parameter set shared by the data
// endpoints. Each endpoint passes decodeParams the keys it understands;
// anything else — unknown keys, repeated keys, malformed values — is a
// client error surfaced as 400, never a panic (FuzzQueryParams holds
// that line).
type Params struct {
	Metric  store.Metric
	Metrics []store.Metric
	Group   store.GroupKey
	Filter  store.Filter

	Limit        int
	Normalize    bool
	Bins         int
	N            int
	Apps         []string
	MinNodeHours float64
	Suite        string
}

// Decode limits mirroring the store's plausible ranges: a malicious
// bins=1e9 must not allocate gigabytes.
const (
	maxBins  = 1000
	maxLimit = 10000
	maxTopN  = 1000
)

// decodeParams validates q against the allowed key set and fills
// Params with defaults matching the paper's analysis population
// (minsamples=1: jobs longer than one sampling interval).
func decodeParams(q url.Values, allowed ...string) (Params, error) {
	p := Params{
		Group:   store.ByUser,
		Metrics: store.KeyMetrics(),
		Filter:  store.Filter{MinSamples: 1},
		Limit:   20,
		Bins:    20,
		N:       5,
	}
	allow := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		allow[k] = true
	}
	for key, vals := range q {
		if !allow[key] {
			return Params{}, fmt.Errorf("unknown parameter %q", key)
		}
		if len(vals) != 1 {
			return Params{}, fmt.Errorf("parameter %q repeated %d times", key, len(vals))
		}
		value := vals[0]
		var err error
		switch key {
		case "metric":
			if store.MetricPos(store.Metric(value)) < 0 {
				return Params{}, fmt.Errorf("unknown metric %q", value)
			}
			p.Metric = store.Metric(value)
		case "metrics":
			p.Metrics = p.Metrics[:0]
			for _, m := range strings.Split(value, ",") {
				if store.MetricPos(store.Metric(m)) < 0 {
					return Params{}, fmt.Errorf("unknown metric %q", m)
				}
				p.Metrics = append(p.Metrics, store.Metric(m))
			}
		case "group":
			var ok bool
			if p.Group, ok = store.ParseGroupKey(value); !ok {
				err = fmt.Errorf("unknown group %q", value)
			}
		case "cluster":
			p.Filter.Cluster = value
		case "user":
			p.Filter.User = value
		case "app":
			p.Filter.App = value
		case "science":
			p.Filter.Science = value
		case "status":
			p.Filter.Status = value
		case "minsamples":
			p.Filter.MinSamples, err = parseInt(key, value, 0, store.MaxMinSamples)
		case "endafter":
			p.Filter.EndAfter, err = parseInt64(key, value)
		case "endbefore":
			p.Filter.EndBefore, err = parseInt64(key, value)
		case "limit":
			p.Limit, err = parseInt(key, value, 1, maxLimit)
		case "normalize":
			p.Normalize, err = strconv.ParseBool(value)
			if err != nil {
				err = fmt.Errorf("bad normalize %q", value)
			}
		case "bins":
			p.Bins, err = parseInt(key, value, 1, maxBins)
		case "n":
			p.N, err = parseInt(key, value, 0, maxTopN)
		case "apps":
			p.Apps = strings.Split(value, ",")
		case "min_nodehours":
			p.MinNodeHours, err = strconv.ParseFloat(value, 64)
			// A finite number >= 0: NaN fails every comparison, so it
			// would pass a "< 0" test and then match no user at all.
			if err != nil || !(p.MinNodeHours >= 0 && p.MinNodeHours <= math.MaxFloat64) {
				err = fmt.Errorf("bad min_nodehours %q", value)
			}
		case "suite":
			p.Suite = value
		}
		if err != nil {
			return Params{}, err
		}
	}
	return p, nil
}

func parseInt(key, value string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(value)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("bad %s %q (want integer in [%d, %d])", key, value, lo, hi)
	}
	return n, nil
}

func parseInt64(key, value string) (int64, error) {
	n, err := strconv.ParseInt(value, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q (want non-negative unix seconds)", key, value)
	}
	return n, nil
}

// filterKeys are the parameter names shared by every endpoint that
// filters the job population.
var filterKeys = []string{
	"cluster", "user", "app", "science", "status",
	"minsamples", "endafter", "endbefore",
}

// queryKeys are /api/v1/query's parameters, the vocabulary cmd/xdmod
// -query shares through ParseQuery.
var queryKeys = filtered("group", "metrics", "limit", "normalize")

// ParseQuery parses cmd/xdmod's custom-report spec: whitespace-separated
// key=value fields with /api/v1/query's keys, defaults, bounds and
// escapes ('+' is a space), so the CLI and the endpoint answer the same
// report for the same fields.
func ParseQuery(spec string) (core.Query, error) {
	q, err := url.ParseQuery(strings.Join(strings.Fields(spec), "&"))
	if err != nil {
		return core.Query{}, err
	}
	p, err := decodeParams(q, queryKeys...)
	if err != nil {
		return core.Query{}, err
	}
	return p.query(), nil
}

// query is the custom report p asks /api/v1/query for.
func (p Params) query() core.Query {
	return core.Query{
		GroupBy:   p.Group,
		Metrics:   p.Metrics,
		Filter:    p.Filter,
		Limit:     p.Limit,
		Normalize: p.Normalize,
	}
}
