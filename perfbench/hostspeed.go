package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The host's speed wanders: on a shared VM the loopback round trip, and
// with it every RPC, a solve and the CPU they are charged, runs up to
// half again slower for seconds at a time (NOTES.md, "Host speed"). The
// gated figures are scaled to a host whose loopback round trip takes
// refRTT, by a ping-pong of the benchmark's own timed between the
// workload's operations while the program is idle.
const (
	refRTT     = 10 * time.Microsecond
	probeTrips = 32 // round trips in one sample
	probeBytes = 64 // bytes each way in a round trip
)

// hostProbe is a loopback TCP connection to an echo goroutine. Its
// samples are the mean round trip of probeTrips small messages, which
// go through the same kernel paths as the program's calls but none of
// its code.
type hostProbe struct {
	c, s net.Conn
	buf  []byte
	done sync.WaitGroup
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		s, _ := ln.Accept()
		accepted <- s
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	s := <-accepted
	if s == nil {
		c.Close()
		return nil, io.ErrUnexpectedEOF
	}
	h := &hostProbe{c: c, s: s, buf: make([]byte, probeBytes)}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		buf := make([]byte, probeBytes)
		for {
			if _, err := io.ReadFull(s, buf); err != nil {
				return
			}
			if _, err := s.Write(buf); err != nil {
				return
			}
		}
	}()
	return h, nil
}

// sample appends the mean round trip, in seconds, to rtts.
func (h *hostProbe) sample(rtts *[]float64) error {
	start := time.Now()
	for i := 0; i < probeTrips; i++ {
		if _, err := h.c.Write(h.buf); err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
		if _, err := io.ReadFull(h.c, h.buf); err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
	}
	*rtts = append(*rtts, time.Since(start).Seconds()/probeTrips)
	return nil
}

// close ends the echo goroutine and waits for it.
func (h *hostProbe) close() {
	h.c.Close()
	h.s.Close()
	h.done.Wait()
}

// hostScale turns a figure measured while the probe's round trips took
// rtts into the figure at refRTT. With no round trips it returns x.
func hostScale(x float64, rtts []float64) float64 {
	if len(rtts) == 0 {
		return x
	}
	return x * refRTT.Seconds() * float64(len(rtts)) / sum(rtts)
}
