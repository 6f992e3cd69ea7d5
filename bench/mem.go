package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"
)

const mib = 1 << 20

// heapSampler polls the runtime's heap-object bytes every 10 ms and
// keeps the maximum: the peak a stage reached, including garbage not
// yet collected, which is what sizes the process. runtime/metrics reads
// do not stop the world, so the sampler runs in plain runs too.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapObjects()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak since the last take (in MiB) and starts a new
// window at the current level.
func (h *heapSampler) take() float64 {
	h.observe()
	return float64(h.peak.Swap(0)) / mib
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// allocMark is a runtime.MemStats reading taken before a sequential
// stage; since reports what the stage allocated. ReadMemStats stops the
// world, so marks are taken only between stages, never inside one.
type allocMark struct{ mallocs, bytes uint64 }

func markAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, ms.TotalAlloc}
}

func (m allocMark) since() (mallocs, bytes float64) {
	now := markAllocs()
	return float64(now.mallocs - m.mallocs), float64(now.bytes - m.bytes)
}

// liveHeapMiB is HeapAlloc after two collections: the first finishes
// any cycle in flight and frees what it can, the second frees what
// finalizers and the first sweep released.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// machineTag identifies the box a result was measured on; numbers from
// different tags are not comparable.
type machineTag struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readMachineTag() machineTag {
	tag := machineTag{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				tag.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		tag.Kernel = strings.TrimSpace(string(b))
	}
	return tag
}

// cpuMark is a reading of /proc/stat's aggregate cpu line, in ticks:
// busy is time the guest's CPUs ran (user, nice, system, irq, softirq),
// steal is time they were runnable but the hypervisor ran someone else.
type cpuMark struct {
	busy, steal int64
	ok          bool
}

func markCPU() cpuMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuMark{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	var user, nice, system, idle, iowait, irq, softirq, steal int64
	n, _ := fmt.Sscanf(string(line), "cpu %d %d %d %d %d %d %d %d", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal)
	if n != 8 {
		return cpuMark{}
	}
	return cpuMark{busy: user + nice + system + irq + softirq, steal: steal, ok: true}
}

// grantedSince is the share of the CPU time the guest asked for since
// the mark that it was actually given: busy / (busy + steal). On this
// kind of shared sandbox the hypervisor withholds up to a third of the
// CPU for minutes at a time, and a wall clock that keeps running while
// the vCPUs do not makes every timing wander by as much. Timed values
// are multiplied by this share, which turns them into the time the work
// would have taken on the CPUs it asked for; it is exactly 1 on a host
// that reports no steal, and where /proc/stat cannot be read.
func (m cpuMark) grantedSince() float64 {
	now := markCPU()
	if !m.ok || !now.ok {
		return 1
	}
	busy, steal := now.busy-m.busy, now.steal-m.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
