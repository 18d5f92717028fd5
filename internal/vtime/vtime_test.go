package vtime

import (
	"sync"
	"testing"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock should read 0")
	}
}

func TestAdvance(t *testing.T) {
	var c Clock
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("advance returned %v", got)
	}
	c.Advance(time.Millisecond)
	if c.Now() != 6*time.Millisecond {
		t.Fatalf("now = %v", c.Now())
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance should panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestConcurrentAdvance(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000*time.Nanosecond {
		t.Fatalf("lost updates: %v", c.Now())
	}
}
