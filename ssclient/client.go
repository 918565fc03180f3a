// Package ssclient holds two aliases of the root package's wire client,
// kept because the benchmark module imports them. Other code uses
// smoothscan.Dial and smoothscan.Conn directly.
package ssclient

import "smoothscan"

// Conn is smoothscan.Conn.
type Conn = smoothscan.Conn

// Dial is smoothscan.Dial.
func Dial(addr string) (*Conn, error) { return smoothscan.Dial(addr) }
