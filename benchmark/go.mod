module avmem/benchmark

go 1.24

require avmem v0.0.0

replace avmem => ../
