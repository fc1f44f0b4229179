// Package slo defines the service-level-objective classes NNLQP's serving
// path schedules by. A request is tagged with a Class — on the wire via the
// X-NNLQP-Class header, in-process via the context — and every layer that
// queues work (the server's admission controller, the device farm's Acquire
// path) orders waiters by the class's deadline urgency: a 50 ms interactive
// request never waits behind queued best-effort traffic.
//
// The package sits at the bottom of the dependency graph (stdlib only) so
// hwsim, query, server and cluster can all share one vocabulary without
// cycles.
package slo

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// Class is one SLO tier. The zero value is not valid; use BestEffort as the
// default for untagged traffic.
type Class string

const (
	// Interactive is latency-sensitive traffic: a human (or a tight control
	// loop) is waiting. Target: answer within 50 ms.
	Interactive Class = "interactive"
	// Batch is throughput traffic with a loose deadline: dataset builds,
	// NAS sweeps. Target: answer within 500 ms.
	Batch Class = "batch"
	// BestEffort has no deadline: background fills, speculative warming.
	// It is the default class for untagged requests and always yields to
	// the other classes under contention.
	BestEffort Class = "best-effort"
)

// Classes lists every class from most to least urgent.
var Classes = []Class{Interactive, Batch, BestEffort}

// Header is the HTTP request header carrying the class; routers must
// forward it unchanged so the class survives every hop to the node that
// finally queues the work.
const Header = "X-NNLQP-Class"

// Parse resolves a wire value to a Class.
func Parse(s string) (Class, error) {
	switch Class(s) {
	case Interactive, Batch, BestEffort:
		return Class(s), nil
	}
	return "", fmt.Errorf("slo: unknown class %q", s)
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool {
	_, err := Parse(string(c))
	return err == nil
}

// Deadline is the class's latency target; 0 means no deadline (BestEffort).
func (c Class) Deadline() time.Duration {
	switch c {
	case Interactive:
		return 50 * time.Millisecond
	case Batch:
		return 500 * time.Millisecond
	}
	return 0
}

// Urgency orders classes for queueing: lower is served first. Unknown
// classes rank with BestEffort.
func (c Class) Urgency() int {
	switch c {
	case Interactive:
		return 0
	case Batch:
		return 1
	}
	return 2
}

// NumUrgencies is the number of distinct Urgency levels (for fixed-size
// per-level waiter accounting).
const NumUrgencies = 3

// FromHeader reads the class from an HTTP request header, defaulting to
// BestEffort when the header is absent or carries an unknown value — a load
// balancer mangling the tag must degrade service, never break it.
func FromHeader(h http.Header) Class {
	if c, err := Parse(h.Get(Header)); err == nil {
		return c
	}
	return BestEffort
}

// ctxKey is the private context key type for the request class.
type ctxKey struct{}

// WithContext tags ctx with the request's class so layers below the HTTP
// handler (the query system, the farm Acquire path) can schedule by it.
func WithContext(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext reads the class a request was tagged with, defaulting to
// BestEffort for untagged work (background loops, tests, CLIs).
func FromContext(ctx context.Context) Class {
	if c, ok := ctx.Value(ctxKey{}).(Class); ok && c.Valid() {
		return c
	}
	return BestEffort
}
