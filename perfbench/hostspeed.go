package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostGauge gauges the host's current speed with two fixed pieces of
// work whose code never changes with the repository, each run on one
// goroutine per worker: a pointer chase through a random cycle over
// gaugeBytes, bound by memory latency, and round trips over loopback
// TCP, bound by system calls and wake-ups across CPUs. On a shared host
// the simulator slows down with both. The cycles are mapped outside the
// Go heap, so the gauge neither counts in the retained heap nor moves
// the collector's pacing of the workload.
type hostGauge struct {
	next  [][]uint32
	conns []net.Conn
	ln    net.Listener
	sum   uint64
}

const (
	gaugeBytes = 16 << 20
	gaugeSteps = 1 << 19
	echoTrips  = 1500
	echoBytes  = 512
	// chaseRefMS and echoRefMS are the two parts' wall times at the
	// reference host speed the host-time metrics are scaled to: about
	// their medians on the 2-vCPU Xeon this benchmark was tuned on.
	chaseRefMS = 100.0
	echoRefMS  = 40.0
)

// newHostGauge maps one cycle per worker, each a uniformly random
// cyclic permutation (Sattolo's shuffle: next[i] follows i), and opens
// one connection per worker to a loopback echo server.
func newHostGauge(workers int) (*hostGauge, error) {
	g := &hostGauge{}
	n := gaugeBytes / 4
	for w := 0; w < workers; w++ {
		mem, err := syscall.Mmap(-1, 0, gaugeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping the host gauge: %w", err)
		}
		next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
		for i := range next {
			next[i] = uint32(i)
		}
		rng := rand.New(rand.NewPCG(2, uint64(w)))
		for i := n - 1; i > 0; i-- {
			j := rng.IntN(i)
			next[i], next[j] = next[j], next[i]
		}
		g.next = append(g.next, next)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host gauge: %w", err)
	}
	g.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // the listener was closed
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	for w := 0; w < workers; w++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			g.close()
			return nil, fmt.Errorf("host gauge: %w", err)
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

// close stops the echo connections and listener.
func (g *hostGauge) close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.ln.Close()
}

// measure runs the chase and then the echo once on every lane in
// parallel and returns their wall times.
func (g *hostGauge) measure() (chase, echo time.Duration) {
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, next := range g.next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p uint32
			var sum uint64
			for i := 0; i < gaugeSteps; i++ {
				p = next[p]
				sum += uint64(p)
			}
			mu.Lock()
			g.sum += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	t1 := time.Now()
	for _, c := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, echoBytes)
			for i := 0; i < echoTrips; i++ {
				if _, err := c.Write(buf); err != nil {
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return t1.Sub(t0), time.Since(t1)
}

// around runs f between two runs of the gauge and returns how many
// times slower than the reference the host was meanwhile: the geometric
// mean of the two parts' mean times over their reference times. A rate
// measured in f times this factor, or a time divided by it, is at the
// reference host speed.
func (g *hostGauge) around(f func()) float64 {
	c0, e0 := g.measure()
	f()
	c1, e1 := g.measure()
	chase := msOf((c0 + c1).Nanoseconds()) / 2 / chaseRefMS
	echo := msOf((e0 + e1).Nanoseconds()) / 2 / echoRefMS
	return math.Sqrt(chase * echo)
}
