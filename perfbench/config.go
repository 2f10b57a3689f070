package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// suite is workloads.json. Nothing in it is derived from measured
// capacity at run time; the seed is the only run input.
type suite struct {
	Workloads map[string]*spec `json:"workloads"`
}

// mix is an operation mix in percent; the four parts sum to 100.
type mix struct {
	Get    int `json:"get"`
	Set    int `json:"set"`
	SetTTL int `json:"setttl"`
	Touch  int `json:"touch"`
}

// durable describes the replicated leader's follower processes.
type durable struct {
	Followers int `json:"followers"`
	// Fsync is the WAL policy of the traced run and the in-process
	// replication probe. UntracedFsync is the policy of the end-to-end
	// rounds, which must not measure the latency of a shared disk.
	Fsync         string `json:"fsync"`
	UntracedFsync string `json:"untraced_fsync"`
}

type spec struct {
	Why   string `json:"why"`
	Proto string `json:"proto"` // "binary" or "text": ffwdserve -proto
	// Capacity is the server's store capacity (ffwdserve -capacity); it
	// also sizes the in-process apps replay.
	Capacity    int      `json:"capacity"`
	Durable     *durable `json:"durable,omitempty"`
	PreloadKeys uint64   `json:"preload_keys"`
	Keys        uint64   `json:"keys"`
	KeyDist     string   `json:"key_dist"` // "uniform" or "zipf"
	ZipfS       float64  `json:"zipf_s,omitempty"`
	Conns       int      `json:"conns"`
	InFlight    int      `json:"in_flight_per_conn"`
	// RateOps is the open-loop offered rate across all connections;
	// 0 selects a closed loop.
	RateOps float64 `json:"rate_ops"`
	Mix     mix     `json:"mix"`
	TTLms   uint64  `json:"ttl_ms"`
}

// lossless reports whether the store can neither evict nor expire an
// entry on this workload: no TTLs, and every key fits.
func (w *spec) lossless() bool {
	return w.Mix.SetTTL == 0 && w.Mix.Touch == 0 && w.Keys <= uint64(w.Capacity)
}

func loadSuite(path string) (*suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for name, w := range s.Workloads {
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return &s, nil
}

func (w *spec) validate() error {
	m := w.Mix
	switch {
	case w.Proto != "binary" && w.Proto != "text":
		return fmt.Errorf("proto %q", w.Proto)
	case w.KeyDist != "uniform" && w.KeyDist != "zipf":
		return fmt.Errorf("key_dist %q", w.KeyDist)
	case m.Get < 0 || m.Set < 0 || m.SetTTL < 0 || m.Touch < 0 || m.Get+m.Set+m.SetTTL+m.Touch != 100:
		return fmt.Errorf("mix %+v does not sum to 100", m)
	case w.Conns < 1 || w.Conns > 2:
		return fmt.Errorf("conns %d (the generator uses at most 2)", w.Conns)
	case w.InFlight < 1 || w.InFlight > ringSize/2:
		return fmt.Errorf("in_flight_per_conn %d", w.InFlight)
	case w.Keys == 0 || w.PreloadKeys > w.Keys:
		return fmt.Errorf("keys %d, preload_keys %d", w.Keys, w.PreloadKeys)
	case w.Capacity < 1:
		return fmt.Errorf("capacity %d", w.Capacity)
	}
	return nil
}
