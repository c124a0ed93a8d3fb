//go:build !linux

package main

import "errors"

// pinToOneCPU is only implemented on Linux; elsewhere the paced phase
// runs unpinned and the record says so.
func pinToOneCPU() (restore func(), err error) {
	return nil, errors.New("CPU pinning is not implemented on this platform")
}
