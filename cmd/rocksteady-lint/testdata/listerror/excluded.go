//go:build ignore

// Package listerror has no file the build includes, so go list reports
// it with an error. A loader that skipped the error would lint an empty
// package and pass.
package listerror

func Unreachable() {}
