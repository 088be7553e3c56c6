module amcast/benchmark

go 1.24

require amcast v0.0.0

replace amcast => ../
