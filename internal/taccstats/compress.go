package taccstats

import (
	"compress/gzip"
	"io"
)

// GzipRotate wraps a RotateFunc so raw files are gzip-compressed on the
// way out. The paper reports Ranger's raw volume as 60 GB/month
// uncompressed and 20 GB compressed (§4.1); the deployed tool keeps
// rotated files gzipped for exactly this reason.
// BenchmarkRawVolumeCompressed measures the ratio our format achieves.
func GzipRotate(inner RotateFunc) RotateFunc {
	return func(day int) (io.WriteCloser, error) {
		wc, err := inner(day)
		if err != nil {
			return nil, err
		}
		return &gzipFile{gz: gzip.NewWriter(wc), file: wc}, nil
	}
}

// gzipFile closes both the gzip stream and the underlying file.
type gzipFile struct {
	gz   *gzip.Writer
	file io.WriteCloser
}

// Write implements io.Writer.
func (g *gzipFile) Write(p []byte) (int, error) { return g.gz.Write(p) }

// Close flushes the gzip stream, then closes the file. The first error
// wins but the file is always closed.
func (g *gzipFile) Close() error {
	gzErr := g.gz.Close()
	fileErr := g.file.Close()
	if gzErr != nil {
		return gzErr
	}
	return fileErr
}

// GzipReader wraps a raw-file reader for parsing compressed files:
// ParseStream(GzipReader(f), fn).
func GzipReader(r io.Reader) (io.ReadCloser, error) {
	return gzip.NewReader(r)
}
