module remicss/benchmark

go 1.22

require remicss v0.0.0

replace remicss => ../
