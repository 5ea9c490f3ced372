package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanQuantiles summarizes the spans of a traced run per span name.
func spanQuantiles(spans []span) map[string]float64 {
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], float64(s.end-s.start)/1e3)
	}
	q := func(name string, p float64) float64 {
		v := byName[name]
		if len(v) == 0 {
			return 0
		}
		sort.Float64s(v)
		return v[int(p*float64(len(v)-1))]
	}
	return map[string]float64{
		"rpc.req_leg_p50_us":  q("rpc.req_leg", 0.5),
		"rpc.req_leg_p99_us":  q("rpc.req_leg", 0.99),
		"rpc.handler_p99_us":  q("rpc.handler", 0.99),
		"rpc.resp_leg_p99_us": q("rpc.resp_leg", 0.99),
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON (viewable in
// Perfetto), one track per request id, and returns the file's path.
func writeChromeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}`,
			s.name, s.id>>32, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id)
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
