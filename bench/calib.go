package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// refNominalS is what one pass of the reference kernel takes on the
// reference box (see README.md) while its host is quiet. Timings are
// reported as if every pass had taken exactly this long.
const refNominalS = 0.080

// refEvery is the shortest distance between two passes of the kernel.
// The host's speed changes over minutes, and a step much cheaper than
// the kernel (a 15 ms set-up, a smoke-size trial) should not pay for a
// pass of its own.
const refEvery = 250 * time.Millisecond

// calibrator runs a fixed reference kernel between trials and between
// set-up repetitions and reports how much slower than nominal the box
// ran it during this run.
//
// Steal accounting (mem.go) corrects for CPU time the hypervisor
// withholds. It does not see the other thing a shared host does: for
// minutes at a time everything that touches memory or enters the kernel
// gets 25-40 % slower while an arithmetic loop keeps its speed, and then
// it goes back. A run cannot tell that from a slower program, unless it
// times, next to the program, work whose cost it knows. The kernel is
// that work: standard-library code only, nothing of the program, so a
// change to the program cannot move it.
type calibrator struct {
	workers int
	ln      net.Listener
	conns   sync.WaitGroup // the echo server's accept loop and handlers
	samples []float64
	last    time.Time // end of the latest pass
}

func newCalibrator(workers int) (*calibrator, error) {
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c := &calibrator{workers: workers, ln: ln}
	c.conns.Add(1)
	go c.serveEcho()
	return c, nil
}

// serveEcho answers every refMsg-byte message with itself until the
// client hangs up.
func (c *calibrator) serveEcho() {
	defer c.conns.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.conns.Add(1)
		go func() {
			defer c.conns.Done()
			defer conn.Close()
			br := bufio.NewReader(conn)
			buf := make([]byte, refMsg)
			for {
				if _, err := io.ReadFull(br, buf); err != nil {
					return
				}
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}()
	}
}

// close stops the echo server and waits for its goroutines.
func (c *calibrator) close() {
	c.ln.Close()
	c.conns.Wait()
}

// sample runs the kernel once, on as many goroutines as the workloads
// use, and keeps its steal-corrected wall. Called again within refEvery
// of the latest pass, it does nothing.
func (c *calibrator) sample() error {
	if time.Since(c.last) < refEvery { // never true before the first pass
		return nil
	}
	errs := make([]error, c.workers)
	var wg sync.WaitGroup
	cpu := markCPU()
	start := time.Now()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = refKernel(c.ln.Addr().String())
		}(i)
	}
	wg.Wait()
	took := time.Since(start).Seconds() * cpu.grantedSince()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("calibrator: %w", err)
		}
	}
	c.samples = append(c.samples, took)
	c.last = time.Now()
	return nil
}

// slowdown is the median kernel time of this run over the nominal one:
// 1.3 means the box ran known work 30 % slower than the quiet reference
// box does.
func (c *calibrator) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / refNominalS
}

// calibration is the calibrator's entry in a result file.
type calibration struct {
	KernelS  summary `json:"kernel_s"`
	NominalS float64 `json:"nominal_s"`
	Slowdown float64 `json:"slowdown"`
}

func (c *calibrator) report() calibration {
	return calibration{KernelS: summarize(c.samples), NominalS: refNominalS, Slowdown: c.slowdown()}
}

// The reference kernel does, in fixed amounts, the kinds of work the
// program's hot paths do: the snapshot codec (JSON, gzip, a map), dials
// and round trips over loopback TCP, goroutine hand-offs, and plain
// arithmetic. The amounts were fitted on this box so that, over host
// slowdowns of up to 40 %, the workloads' timings move in proportion to
// the kernel's (fitted exponents 0.8-1.1; the arithmetic part, which no
// slowdown touches, is what keeps the kernel from over-reacting).
const (
	refRecords    = 3000     // records through the codec
	refDials      = 140      // loopback connections opened
	refRoundTrips = 6        // messages echoed on each
	refMsg        = 256      // bytes per message
	refHandoffs   = 21000    // channel ping-pongs
	refALUSteps   = 28000000 // multiply-adds
)

type refRecord struct {
	Domain string   `json:"domain"`
	MX     []string `json:"mx"`
	Addrs  []string `json:"addrs"`
	Rank   int      `json:"rank"`
}

// refSink keeps the compiler from discarding the kernel's arithmetic.
var refSink atomic.Uint64

func refKernel(echoAddr string) error {
	n, err := refCodec()
	if err != nil {
		return err
	}
	if err := refLoopback(echoAddr); err != nil {
		return err
	}
	n += refSched()
	n += refALU()
	refSink.Add(n)
	return nil
}

// refCodec writes records as gzipped JSON lines, reads them back and
// looks each one up in a map filled on the way out.
func refCodec() (uint64, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := json.NewEncoder(zw)
	seen := make(map[string]int, refRecords)
	for i := 0; i < refRecords; i++ {
		r := refRecord{
			Domain: fmt.Sprintf("d%09d.example", i*7919%100003),
			MX:     []string{"mx1.provider.example", "mx2.provider.example"},
			Addrs:  []string{"192.0.2.1", "192.0.2.2"},
			Rank:   i,
		}
		if err := enc.Encode(r); err != nil {
			return 0, err
		}
		seen[r.Domain] += i
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		return 0, err
	}
	dec := json.NewDecoder(zr)
	var sum uint64
	for {
		var r refRecord
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
		sum += uint64(seen[r.Domain])
	}
	return sum, nil
}

// refLoopback dials the echo server, exchanges a few messages and hangs
// up, over and over: the system calls of a request through the balancer.
// It hangs up with a reset: thousands of sockets left in TIME_WAIT would
// outlive the run by a minute and take ephemeral ports from whatever
// runs next.
func refLoopback(addr string) error {
	buf := make([]byte, refMsg)
	for i := 0; i < refDials; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		for j := 0; j < refRoundTrips; j++ {
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				return err
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				conn.Close()
				return err
			}
		}
		conn.Close()
	}
	return nil
}

// refSched bounces a value between two goroutines over unbuffered
// channels.
func refSched() uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var v uint64
	for i := 0; i < refHandoffs; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	return v
}

func refALU() uint64 {
	var x uint64 = 1
	for i := 0; i < refALUSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}
