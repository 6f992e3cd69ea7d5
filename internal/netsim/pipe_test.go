package netsim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestDialPinsNoSessions is the fabric twin of world's
// TestFlatDialerPinsNoSessions: every session arms the deadlines a scan
// does (ten seconds on the client's end, a minute on the server's),
// exchanges a line and closes. net.Pipe's deadline timers must not
// outlive their connection, or a long scan holds every recent session
// in memory (1.8 KiB each through a bare net.Pipe, 3.5 MiB over this loop).
func TestDialPinsNoSessions(t *testing.T) {
	n := New()
	l, err := n.Listen(ap("192.0.2.9:25"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.SetReadDeadline(time.Now().Add(time.Minute))
			c.Write([]byte("220 hi\r\n"))
			c.Close()
		}
	}()
	sessions := func(count int) uint64 {
		buf := make([]byte, 16)
		for i := 0; i < count; i++ {
			c, err := n.Dial(context.Background(), ap("192.0.2.9:25"))
			if err != nil {
				t.Fatal(err)
			}
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Read(buf); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := sessions(50)
	if after := sessions(2000); after > before+300<<10 {
		t.Errorf("2000 closed sessions left %d KiB on the heap", (after-before)>>10)
	}
}
