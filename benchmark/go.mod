module prepare/benchmark

go 1.22

require prepare v0.0.0

replace prepare => ../
