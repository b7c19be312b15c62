// Package buildignore holds one file the build excludes: the loader must
// leave it out, or Double is declared twice.
package buildignore

func Double(x int) int { return 2 * x }
