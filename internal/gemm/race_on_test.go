//go:build race

package gemm

func init() { raceDetector = true }
