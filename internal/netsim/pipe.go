package netsim

import (
	"net"
	"sync"
	"time"
)

// Pipe is net.Pipe with ends that leave no deadline timer behind.
// net.Pipe keeps a timer per armed deadline, Close does not stop it, and
// until it fires it pins the closed pipe: a scan would hold every
// session of the last minute (the server's read timeout) in memory.
// Once either end is closed net.Pipe refuses to touch a deadline, so the
// first Close disarms both ends, under a lock that keeps the other end
// from arming one in between.
func Pipe() (net.Conn, net.Conn) {
	a, b := net.Pipe()
	mu := new(sync.Mutex)
	return pipeEnd{a, b, mu}, pipeEnd{b, a, mu}
}

type pipeEnd struct {
	net.Conn
	peer net.Conn
	mu   *sync.Mutex // shared by the two ends
}

func (c pipeEnd) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c pipeEnd) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c pipeEnd) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c pipeEnd) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// These fail only when an end is closed already, with nothing armed.
	c.Conn.SetDeadline(time.Time{})
	c.peer.SetDeadline(time.Time{})
	return c.Conn.Close()
}
