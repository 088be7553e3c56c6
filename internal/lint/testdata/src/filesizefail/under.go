package filesizefail // want `3 lines, under its ceiling of 20: lower the ceiling to 3`

const under = 0
