module gofusion/benchmark

go 1.22

require gofusion v0.0.0

replace gofusion => ../
