//go:build ignore

package buildignore

func Double(x int) int { return x + x }
