package darshan

// Test hooks for the external darshan_test package, whose tests need
// the generated workloads (and so cannot live inside package darshan).

// ParseTextUnsorted parses text sequentially but skips the final event
// ordering, so each DXT trace keeps its events in input order.
func ParseTextUnsorted(data []byte) (*Log, error) {
	p := newParser(false)
	if _, err := p.parseChunk(data); err != nil {
		return nil, err
	}
	return p.log, nil
}

// ParseTextSharded is ParseTextParallel with segments of segBytes, so
// small inputs still parse as several shards.
func ParseTextSharded(data []byte, workers, segBytes int) (*Log, error) {
	return parseStreamed(data, StreamOptions{Workers: workers, segBytes: segBytes})
}

// ReferenceSortByStart is referenceSortByStart: the stable comparison
// sort the merge must agree with.
var ReferenceSortByStart = referenceSortByStart
