package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cpuTicks is the host-wide CPU time split from /proc/stat.
type cpuTicks struct{ steal, total int64 }

// hostSteal reads the CPU time the hypervisor gave to other guests.
// Neighbours on a shared host slow every timing here; the stolen share
// during a run tells a reader how much.
func hostSteal() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

func (t cpuTicks) frac(from cpuTicks) float64 {
	return ratio(float64(t.steal-from.steal), float64(t.total-from.total))
}

// stealSampler reads the host's CPU time counters in the background,
// so the stolen share of any interval of its life can be read
// afterwards.
type stealSampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	at         []time.Time
	ticks      []cpuTicks
}

func startStealSampler(every time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	if t, ok := hostSteal(); ok {
		s.mu.Lock()
		s.at = append(s.at, time.Now())
		s.ticks = append(s.ticks, t)
		s.mu.Unlock()
	}
}

// close takes a last sample, stops the sampler and waits for it to
// exit.
func (s *stealSampler) close() {
	close(s.stop)
	<-s.done
	s.sample()
}

// frac returns the stolen share of CPU time from the last sample at or
// before from to the first at or after to, or -1 when no samples span
// the interval.
func (s *stealSampler) frac(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.at), func(k int) bool { return s.at[k].After(from) }) - 1
	j := sort.Search(len(s.at), func(k int) bool { return !s.at[k].Before(to) })
	if i < 0 || j >= len(s.at) || j <= i {
		return -1
	}
	return s.ticks[j].frac(s.ticks[i])
}
