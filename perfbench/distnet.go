package main

// The benchmark's dist.Launcher: workers run as goroutines serving
// dist.RunWorker over net.Pipe, and their data plane is the Unix-socket
// mesh that `ttamc -dist-workers` uses. Every control and mesh
// connection is wrapped to count bytes (and mesh write time), and the
// launcher reports when the last worker listens, which ends the dist
// set-up span.

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ttastar/internal/dist"
)

// netStats are the wire counters of one dist run.
type netStats struct {
	ctrlBytes   atomic.Int64 // coordinator↔worker, both directions
	meshBytes   atomic.Int64 // worker→worker writes
	meshWriteNs atomic.Int64
	listens     atomic.Int64
}

// launcher implements dist.Launcher.
type launcher struct {
	mesh  dist.MeshNet
	stats *netStats
	// onListen, when set, runs after each worker's mesh Listen returns,
	// with the number of workers listening so far. A worker listens only
	// after its Start has returned, so the last Listen marks the fleet up.
	onListen func(n int)

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[int]net.Conn
}

var _ dist.Launcher = (*launcher)(nil)

func newLauncher(meshDir string, stats *netStats) *launcher {
	return &launcher{mesh: dist.NewSocketMesh(meshDir), stats: stats, conns: map[int]net.Conn{}}
}

func (l *launcher) Start(index, incarnation int) (io.ReadWriteCloser, error) {
	coordEnd, workerEnd := net.Pipe()
	l.mu.Lock()
	l.conns[index] = coordEnd
	l.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		// Kill injection (unused by the workloads) unwinds the goroutine
		// the way os.Exit ends a worker process: the coordinator sees EOF.
		exit := func(int) {
			workerEnd.Close()
			runtime.Goexit()
		}
		_ = dist.RunWorker(workerEnd, dist.WorkerOptions{Exit: exit, Mesh: &meshTap{l.mesh, l}})
		workerEnd.Close()
	}()
	return &countConn{ReadWriteCloser: coordEnd, bytes: &l.stats.ctrlBytes}, nil
}

func (l *launcher) Kill(index int) {
	l.mu.Lock()
	c := l.conns[index]
	delete(l.conns, index)
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (l *launcher) Close() {
	l.mu.Lock()
	conns := l.conns
	l.conns = map[int]net.Conn{}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// wait blocks until every worker goroutine has returned.
func (l *launcher) wait() { l.wg.Wait() }

// meshTap wraps the socket mesh so every link is counted.
type meshTap struct {
	inner dist.MeshNet
	l     *launcher
}

func (m *meshTap) Listen(index, incarnation int) (dist.MeshListener, error) {
	ln, err := m.inner.Listen(index, incarnation)
	if err != nil {
		return nil, err
	}
	n := m.l.stats.listens.Add(1)
	if m.l.onListen != nil {
		m.l.onListen(int(n))
	}
	return &listenTap{ln, m.l.stats}, nil
}

func (m *meshTap) Dial(from, fromInc, to, toInc int) (io.ReadWriteCloser, error) {
	c, err := m.inner.Dial(from, fromInc, to, toInc)
	if err != nil {
		return nil, err
	}
	return &meshConn{c, m.l.stats}, nil
}

type listenTap struct {
	dist.MeshListener
	stats *netStats
}

func (l *listenTap) Accept() (io.ReadWriteCloser, int, int, error) {
	c, from, inc, err := l.MeshListener.Accept()
	if err != nil {
		return nil, from, inc, err
	}
	return &meshConn{c, l.stats}, from, inc, nil
}

// meshConn counts the bytes written to a mesh link and the time the
// writes took (a full socket buffer shows up as write time).
type meshConn struct {
	io.ReadWriteCloser
	stats *netStats
}

func (c *meshConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.ReadWriteCloser.Write(p)
	c.stats.meshWriteNs.Add(int64(time.Since(t0)))
	c.stats.meshBytes.Add(int64(n))
	return n, err
}

// countConn counts the bytes a control connection carries both ways.
type countConn struct {
	io.ReadWriteCloser
	bytes *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
