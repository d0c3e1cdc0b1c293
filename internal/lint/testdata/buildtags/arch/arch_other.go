//go:build !amd64

package arch

const lanes = 1
