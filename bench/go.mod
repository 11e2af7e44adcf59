module lsmssd/bench

go 1.22

require lsmssd v0.0.0

replace lsmssd => ../
