package reference

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"supremm/internal/store"
)

// LoadSeries is store.LoadSeries as plain encoding/json: one
// json.Decoder over the whole stream, one value after another into a
// fresh store.SystemSample, until io.EOF.
func LoadSeries(r io.Reader) ([]store.SystemSample, error) {
	var out []store.SystemSample
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var s store.SystemSample
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("store: load series: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
