// Package server is the memcached-text-protocol front end over
// cachelib.Engine: the piece that turns the in-process cache into a network
// service. Per-connection goroutines parse pipelined requests into small
// batches whose gets coalesce into GetMany calls, each SET is one SetAsync
// (the engine's flusher pool decides where it flushes), and shutdown is a
// graceful drain: stop accepting, let every connection finish and reply to
// its in-flight batch, then Drain the engine so every acknowledged write has
// reached flash. See doc.go at the repository root ("The serving layer")
// for the protocol subset and the exact batching/async/drain contracts.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/cachelib"
)

// ErrServerClosed is returned by Serve after Shutdown stops the listener.
var ErrServerClosed = errors.New("server: closed")

// shutdownWriteGrace bounds how long a closing connection may stay blocked
// flushing its final replies to a client that stopped reading.
const shutdownWriteGrace = time.Second

// Config configures a Server. Engine is required; the zero value of every
// other field is a sensible default.
type Config struct {
	// Engine serves the requests. The server never closes it — ownership
	// stays with the caller, which typically wants the engine alive after
	// Shutdown (to checkpoint, inspect stats, or serve again).
	Engine cachelib.Engine
	// MaxItemBytes, when positive, pre-rejects stores whose key + stored
	// value (protocol data plus the 4-byte item envelope) exceed it with
	// the protocol's "SERVER_ERROR object too large for cache", without
	// touching the engine. Set it to the engine's per-object capacity. Zero
	// leaves the rejection to the engine, whose own error then follows
	// SERVER_ERROR.
	MaxItemBytes int
	// MaxConns, when positive, caps concurrently served connections. The
	// over-cap policy is RejectBusy's choice. Zero means unlimited (the
	// historical behavior).
	MaxConns int
	// RejectBusy selects what happens to a connection beyond MaxConns:
	// false (default) applies backpressure at the listener — Serve stops
	// accepting until a slot frees, so the kernel backlog absorbs the
	// burst; true accepts the connection just long enough to answer
	// "SERVER_ERROR busy" and close, so clients fail fast instead of
	// queueing.
	RejectBusy bool
	// IdleTimeout, when positive, disconnects a connection that sits
	// between requests longer than this (counted as an idle disconnect in
	// stats). Zero never times out an idle connection.
	IdleTimeout time.Duration
	// ReadTimeout, when positive, bounds each blocking read inside a
	// request — a client that opens a set and trickles its data block
	// (slow loris) is cut off and counted as a deadline disconnect. Zero
	// leaves mid-request reads unbounded.
	ReadTimeout time.Duration
}

// Server is a memcached-text-protocol server over one cache engine. Create
// with New, feed it listeners via Serve, stop it with Shutdown.
type Server struct {
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	// done is closed by Shutdown so accept loops blocked acquiring a
	// MaxConns slot (the backpressure policy) unblock immediately.
	done chan struct{}

	// connSem is the MaxConns slot semaphore (nil when unlimited). A
	// handler owns one slot for its whole life; Serve's accept loop acquires
	// it per Config.RejectBusy before the handler starts.
	connSem chan struct{}

	handlers sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error

	// Protocol-level counters, surfaced by the `stats` verb next to the
	// engine's rows.
	currConns  atomic.Uint64
	totalConns atomic.Uint64
	cmdGet     atomic.Uint64 // keys requested by get/gets
	cmdSet     atomic.Uint64
	cmdDelete  atomic.Uint64
	getHits    atomic.Uint64
	getMisses  atomic.Uint64
	protoErrs  atomic.Uint64 // ERROR + CLIENT_ERROR replies
	serverErrs atomic.Uint64 // SERVER_ERROR replies

	// Overload accounting: connections turned away at the MaxConns cap,
	// and the two timeout disconnect classes (idle = nothing of a request
	// received; deadline = a request was underway when the read timed out,
	// the slow-loris signature).
	connsRejected       atomic.Uint64
	idleDisconnects     atomic.Uint64
	deadlineDisconnects atomic.Uint64
}

// New returns a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	s := &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
	}
	if cfg.MaxConns > 0 {
		s.connSem = make(chan struct{}, cfg.MaxConns)
	}
	return s, nil
}

// Serve accepts connections on l until Shutdown, spawning one handler
// goroutine per connection. It always returns a non-nil error:
// ErrServerClosed after Shutdown, the accept error otherwise.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	for {
		// Backpressure policy: hold the accept loop until a connection
		// slot frees, letting the listener backlog absorb the overload.
		held := false
		if s.connSem != nil && !s.cfg.RejectBusy {
			select {
			case s.connSem <- struct{}{}:
				held = true
			case <-s.done:
				return ErrServerClosed
			}
		}
		nc, err := l.Accept()
		if err != nil {
			if held {
				<-s.connSem
			}
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		// Fast-reject policy: over the cap, answer busy and move on.
		if s.connSem != nil && s.cfg.RejectBusy {
			select {
			case s.connSem <- struct{}{}:
				held = true
			default:
				s.rejectBusy(nc)
				continue
			}
		}
		if !s.admit(nc) {
			// Shutdown won the race: the connection was accepted but must
			// not start a handler (it would miss the deadline pass, and a
			// WaitGroup.Add here could trail doShutdown's Wait).
			nc.Close()
			if held {
				<-s.connSem
			}
			return ErrServerClosed
		}
		go func() {
			defer s.handlers.Done()
			if held {
				defer func() { <-s.connSem }()
			}
			s.serveConn(nc)
		}()
	}
}

// admit starts a connection's life in one hold of the server lock: unless
// Shutdown has already flipped closed, it reserves the handler in the
// WaitGroup and registers the connection, so a handler either starts before
// Shutdown (and gets its deadline pass and its Wait) or not at all.
// Admitting outside the lock is the race this closes: an Accept winning
// against Shutdown would Add after Wait and serve a connection nobody will
// ever drain.
func (s *Server) admit(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.handlers.Add(1)
	s.conns[nc] = struct{}{}
	s.currConns.Add(1)
	s.totalConns.Add(1)
	return true
}

// rejectBusy answers an over-cap connection with the canonical busy error
// and closes it. The write carries a short deadline so a client that never
// reads cannot pin the accept loop.
func (s *Server) rejectBusy(nc net.Conn) {
	s.connsRejected.Add(1)
	nc.SetWriteDeadline(time.Now().Add(shutdownWriteGrace))
	nc.Write([]byte("SERVER_ERROR busy\r\n"))
	nc.Close()
}

// Shutdown gracefully stops the server: new connections stop being
// accepted, every live connection finishes executing and replying to its
// in-flight batch (a blocking read is interrupted via read deadline; final
// replies get shutdownWriteGrace to flush), and once all handlers have
// exited the engine is drained, so every acknowledged asynchronous SET has
// reached flash — or surfaced its error as Shutdown's return value.
// Shutdown runs once; concurrent and repeated calls return the first run's
// error. The engine itself stays open (and owned by the caller).
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.doShutdown() })
	return s.shutdownErr
}

func (s *Server) doShutdown() error {
	s.mu.Lock()
	s.closed = true
	close(s.done)
	for l := range s.listeners {
		l.Close()
	}
	now := time.Now()
	for nc := range s.conns {
		nc.SetReadDeadline(now) // unblock handlers parked in Read
		nc.SetWriteDeadline(now.Add(shutdownWriteGrace))
	}
	s.mu.Unlock()

	s.handlers.Wait()
	return s.cfg.Engine.Drain()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// setReadDeadline applies a read deadline and then re-asserts Shutdown's
// immediate deadline if Shutdown raced in between — without the recheck, a
// handler arming its idle timeout could overwrite the stop signal and park
// until the timeout instead of draining now.
func (s *Server) setReadDeadline(nc net.Conn, t time.Time) {
	nc.SetReadDeadline(t)
	if s.isClosed() {
		nc.SetReadDeadline(time.Now())
	}
}

func (s *Server) removeConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.currConns.Add(^uint64(0))
}

// Fields returns the protocol-level counters in stable order — the rows the
// `stats` verb emits ahead of the engine's (Engine.Fields), and the head of
// nemoserve's SIGQUIT health report.
func (s *Server) Fields() []cachelib.Field {
	return []cachelib.Field{
		{Name: "curr_connections", Value: s.currConns.Load()},
		{Name: "total_connections", Value: s.totalConns.Load()},
		{Name: "cmd_get", Value: s.cmdGet.Load()},
		{Name: "cmd_set", Value: s.cmdSet.Load()},
		{Name: "cmd_delete", Value: s.cmdDelete.Load()},
		{Name: "get_hits", Value: s.getHits.Load()},
		{Name: "get_misses", Value: s.getMisses.Load()},
		{Name: "protocol_errors", Value: s.protoErrs.Load()},
		{Name: "server_errors", Value: s.serverErrs.Load()},
		{Name: "conns_rejected", Value: s.connsRejected.Load()},
		{Name: "idle_disconnects", Value: s.idleDisconnects.Load()},
		{Name: "deadline_disconnects", Value: s.deadlineDisconnects.Load()},
	}
}
