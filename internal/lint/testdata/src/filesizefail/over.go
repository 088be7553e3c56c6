// Package filesizefail holds files the file-size ratchet must report:
// over.go is longer than its ceiling, under.go shorter than its own.
package filesizefail // want `6 lines, over its ceiling of 4`

// Over is past its file's ceiling.
const Over = 1
